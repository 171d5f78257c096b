package wire

import (
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"

	"pdagent/internal/kxml"
	"pdagent/internal/mavm"
)

// This file is the encode half of the wire fast path: AppendXML methods
// write straight into a caller-supplied []byte, producing output
// byte-identical to the old kxml.Node encoders (the compatibility tests
// hold them to that) without allocating a tree. EncodeXML methods are
// thin fresh-buffer wrappers.

// xmlDecl matches kxml.Node.EncodeDocument's declaration prefix.
const xmlDecl = `<?xml version="1.0" encoding="UTF-8"?>`

// appendAttr appends ` name="escaped-value"`.
func appendAttr(dst []byte, name, value string) []byte {
	dst = append(dst, ' ')
	dst = append(dst, name...)
	dst = append(dst, '=', '"')
	dst = kxml.AppendEscapedAttr(dst, value)
	return append(dst, '"')
}

// AppendXML appends the PI document to dst and returns the extended
// slice. On error dst may hold a partial document; callers should
// discard it.
func (pi *PackedInformation) AppendXML(dst []byte) ([]byte, error) {
	dst = append(dst, xmlDecl...)
	dst = append(dst, "<packed-information"...)
	dst = appendAttr(dst, "code-id", pi.CodeID)
	dst = appendAttr(dst, "key", pi.DispatchKey)
	dst = appendAttr(dst, "owner", pi.Owner)
	if pi.Nonce != "" {
		dst = appendAttr(dst, "nonce", pi.Nonce)
	}
	if pi.CodeHash != "" {
		dst = appendAttr(dst, "code-hash", pi.CodeHash)
	}
	dst = append(dst, '>')
	if pi.Source != "" || pi.CodeHash == "" {
		dst = append(dst, "<code>"...)
		dst = kxml.AppendEscapedText(dst, pi.Source)
		dst = append(dst, "</code>"...)
	}
	if len(pi.Params) == 0 {
		dst = append(dst, "<params/>"...)
	} else {
		dst = append(dst, "<params>"...)
		keys := make([]string, 0, len(pi.Params))
		for k := range pi.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			dst = append(dst, "<param"...)
			dst = appendAttr(dst, "name", k)
			dst = append(dst, '>')
			var err error
			if dst, err = AppendValueXML(dst, pi.Params[k]); err != nil {
				return dst, fmt.Errorf("wire: param %q: %w", k, err)
			}
			dst = append(dst, "</param>"...)
		}
		dst = append(dst, "</params>"...)
	}
	return append(dst, "</packed-information>"...), nil
}

// AppendValueXML appends a mavm value as a <value> element. Values must
// be acyclic; nesting is bounded like ValueToXML.
func AppendValueXML(dst []byte, v mavm.Value) ([]byte, error) {
	return appendValueXML(dst, v, 0)
}

func appendValueXML(dst []byte, v mavm.Value, depth int) ([]byte, error) {
	if depth > maxValueDepth {
		return dst, fmt.Errorf("wire: value nesting exceeds %d", maxValueDepth)
	}
	switch v.Kind() {
	case mavm.KindNil:
		return append(dst, `<value type="nil"/>`...), nil
	case mavm.KindBool:
		dst = append(dst, `<value type="bool">`...)
		dst = strconv.AppendBool(dst, v.AsBool())
		return append(dst, "</value>"...), nil
	case mavm.KindInt:
		dst = append(dst, `<value type="int">`...)
		dst = strconv.AppendInt(dst, v.AsInt(), 10)
		return append(dst, "</value>"...), nil
	case mavm.KindFloat:
		dst = append(dst, `<value type="float">`...)
		dst = strconv.AppendFloat(dst, v.AsFloat(), 'g', -1, 64)
		return append(dst, "</value>"...), nil
	case mavm.KindStr:
		// An empty string still carried a text node in the DOM encoder,
		// so the element never self-closes.
		dst = append(dst, `<value type="str">`...)
		dst = kxml.AppendEscapedText(dst, v.AsStr())
		return append(dst, "</value>"...), nil
	case mavm.KindList:
		items := v.ListItems()
		if len(items) == 0 {
			return append(dst, `<value type="list"/>`...), nil
		}
		dst = append(dst, `<value type="list">`...)
		for _, it := range items {
			var err error
			if dst, err = appendValueXML(dst, it, depth+1); err != nil {
				return dst, err
			}
		}
		return append(dst, "</value>"...), nil
	case mavm.KindMap:
		keys := v.MapKeys()
		if len(keys) == 0 {
			return append(dst, `<value type="map"/>`...), nil
		}
		dst = append(dst, `<value type="map">`...)
		entries := v.MapEntries()
		for _, k := range keys {
			dst = append(dst, "<entry"...)
			dst = appendAttr(dst, "key", k)
			dst = append(dst, '>')
			var err error
			if dst, err = appendValueXML(dst, entries[k], depth+1); err != nil {
				return dst, err
			}
			dst = append(dst, "</entry>"...)
		}
		return append(dst, "</value>"...), nil
	default:
		return dst, fmt.Errorf("wire: cannot encode %v value", v.Kind())
	}
}

// AppendXML appends the result document to dst.
func (rd *ResultDocument) AppendXML(dst []byte) ([]byte, error) {
	dst = append(dst, xmlDecl...)
	dst = append(dst, "<result-document"...)
	dst = appendAttr(dst, "agent", rd.AgentID)
	dst = appendAttr(dst, "code-id", rd.CodeID)
	dst = appendAttr(dst, "owner", rd.Owner)
	dst = appendAttr(dst, "status", rd.Status)
	dst = append(dst, ` hops="`...)
	dst = strconv.AppendInt(dst, int64(rd.Hops), 10)
	dst = append(dst, `" steps="`...)
	dst = strconv.AppendUint(dst, rd.Steps, 10)
	dst = append(dst, '"')
	if rd.Error == "" && len(rd.Results) == 0 {
		// Childless root: the DOM encoder self-closed it.
		return append(dst, "/>"...), nil
	}
	dst = append(dst, '>')
	if rd.Error != "" {
		dst = append(dst, "<error>"...)
		dst = kxml.AppendEscapedText(dst, rd.Error)
		dst = append(dst, "</error>"...)
	}
	for _, r := range rd.Results {
		dst = append(dst, "<result"...)
		dst = appendAttr(dst, "key", r.Key)
		dst = append(dst, '>')
		var err error
		if dst, err = AppendValueXML(dst, r.Value); err != nil {
			return dst, fmt.Errorf("wire: result %q: %w", r.Key, err)
		}
		dst = append(dst, "</result>"...)
	}
	return append(dst, "</result-document>"...), nil
}

// appendCodePackageXML appends the <code-package> element exactly as
// CodePackage.EncodeXML renders it.
func appendCodePackageXML(dst []byte, cp *CodePackage) []byte {
	dst = append(dst, "<code-package"...)
	dst = appendAttr(dst, "id", cp.CodeID)
	dst = appendAttr(dst, "name", cp.Name)
	dst = appendAttr(dst, "version", cp.Version)
	dst = append(dst, "><description>"...)
	dst = kxml.AppendEscapedText(dst, cp.Description)
	dst = append(dst, "</description><source>"...)
	dst = kxml.AppendEscapedText(dst, cp.Source)
	return append(dst, "</source></code-package>"...)
}

// AppendXML appends the subscription document to dst.
func (s *Subscription) AppendXML(dst []byte) ([]byte, error) {
	if s.Package == nil {
		return dst, fmt.Errorf("wire: subscription missing package")
	}
	dst = append(dst, xmlDecl...)
	dst = append(dst, "<subscription"...)
	dst = appendAttr(dst, "gateway", s.Gateway)
	dst = append(dst, '>')
	dst = appendCodePackageXML(dst, s.Package)
	dst = append(dst, "<secret>"...)
	dst = hex.AppendEncode(dst, s.Secret)
	dst = append(dst, "</secret><gateway-key>"...)
	dst = kxml.AppendEscapedText(dst, s.GatewayKey)
	return append(dst, "</gateway-key></subscription>"...), nil
}
