package wire

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"pdagent/internal/compress"
	"pdagent/internal/mavm"
	"pdagent/internal/pisec"
)

// PackedInformation is the §3.2 dispatch package: "The Agent Dispatcher
// will collect the agent code and parameters, generate a unique key
// from the assigned code id, encode them into a XML document, and pass
// it on as a single package".
type PackedInformation struct {
	// CodeID identifies the subscribed code package.
	CodeID string
	// DispatchKey is the pisec.DispatchKey derived from CodeID and the
	// subscription secret; the gateway's Agent Creator validates it.
	DispatchKey string
	// Owner identifies the dispatching device/user.
	Owner string
	// Nonce is a per-dispatch random value; gateways reject reuse so a
	// captured PI cannot be replayed to re-dispatch the agent. (An
	// extension beyond the paper's Figure 7 model, which does not
	// address replay.)
	Nonce string
	// Source is the MAScript agent code being dispatched. It may be
	// empty when CodeHash names code the gateway already holds.
	Source string
	// CodeHash is CodeHash(Source) of the subscribed package: a device
	// dispatching catalogue code sends this reference instead of the
	// code, and the gateway resolves it against its catalogue.
	CodeHash string
	// Params are the user's service parameters entered offline.
	Params map[string]mavm.Value
}

// NewNonce returns a fresh random dispatch nonce, read from ctx's
// pisec.Entropy.
func NewNonce(ctx context.Context) (string, error) {
	var b [16]byte
	if _, err := io.ReadFull(pisec.Entropy(ctx), b[:]); err != nil {
		return "", fmt.Errorf("wire: nonce: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// CodeHash names a MAScript source by reference: the first 8 bytes of
// its SHA-256, as 16 hex characters.
func CodeHash(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:8])
}

// EncodeXML renders the PI document (AppendXML into a fresh buffer).
func (pi *PackedInformation) EncodeXML() ([]byte, error) {
	return pi.AppendXML(nil)
}

// ParsePackedInformation parses a PI document on the zero-DOM fast
// path: it drives the kxml pull parser directly and never builds a
// *kxml.Node tree (see pull.go).
func ParsePackedInformation(doc []byte) (*PackedInformation, error) {
	s := newScanner(doc)
	root, err := s.root("packed-information", "packed information")
	if err != nil {
		return nil, err
	}
	pi := &PackedInformation{
		CodeID:      evAttrDefault(root, "code-id", ""),
		DispatchKey: evAttrDefault(root, "key", ""),
		Owner:       evAttrDefault(root, "owner", ""),
		Nonce:       evAttrDefault(root, "nonce", ""),
		CodeHash:    evAttrDefault(root, "code-hash", ""),
		Params:      map[string]mavm.Value{},
	}
	sawCode, sawParams := false, false
	for {
		ev, ok, err := s.child()
		if err != nil {
			return nil, fmt.Errorf("wire: packed information: %w", err)
		}
		if !ok {
			break
		}
		switch {
		case ev.Name == "code" && !sawCode:
			sawCode = true
			if pi.Source, err = s.text(); err != nil {
				return nil, fmt.Errorf("wire: packed information: %w", err)
			}
		case ev.Name == "params" && !sawParams:
			sawParams = true
			if err := parseParams(&s, pi.Params); err != nil {
				return nil, err
			}
		default:
			if err := s.skip(); err != nil {
				return nil, fmt.Errorf("wire: packed information: %w", err)
			}
		}
	}
	if err := s.finish(); err != nil {
		return nil, fmt.Errorf("wire: packed information: %w", err)
	}
	if pi.CodeID == "" {
		return nil, fmt.Errorf("wire: packed information missing code-id")
	}
	if pi.Source == "" && pi.CodeHash == "" {
		return nil, fmt.Errorf("wire: packed information missing code and code-hash")
	}
	return pi, nil
}

// parseParams decodes the children of a just-opened <params> element.
func parseParams(s *scanner, out map[string]mavm.Value) error {
	for {
		ev, ok, err := s.child()
		if err != nil {
			return fmt.Errorf("wire: packed information: %w", err)
		}
		if !ok {
			return nil
		}
		if ev.Name != "param" {
			if err := s.skip(); err != nil {
				return fmt.Errorf("wire: packed information: %w", err)
			}
			continue
		}
		name, haveName := evAttr(ev, "name")
		if !haveName {
			return fmt.Errorf("wire: param missing name")
		}
		val, found, err := s.firstValueChild(0)
		if err != nil {
			return fmt.Errorf("wire: param %q: %w", name, err)
		}
		if !found {
			return fmt.Errorf("wire: param %q: %w", name, errExpectedValue)
		}
		out[name] = val
	}
}

// Pack applies the device-side transfer pipeline to a PI: XML encode,
// compress with the chosen codec, and (when gatewayKey is non-nil)
// seal to the gateway per Figure 7. The result is the HTTP body the
// Network Manager uploads. It is AppendPack into a fresh buffer.
func Pack(pi *PackedInformation, codec compress.Codec, gatewayKey *pisec.PublicKey) ([]byte, error) {
	return AppendPack(nil, pi, codec, gatewayKey)
}

// AppendPack is Pack appending the upload body to dst: the intermediate
// XML document and compressed frame live in pooled scratch buffers, so
// a device (or benchmark) reusing its body buffer allocates nothing per
// upload in steady state.
func AppendPack(dst []byte, pi *PackedInformation, codec compress.Codec, gatewayKey *pisec.PublicKey) ([]byte, error) {
	return appendPack(dst, pi, codec, gatewayKey, pisec.AppendSeal)
}

// AppendPackWrapped is AppendPack sealing with the session's wrapped key
// even once the gateway has accepted the session
// (pisec.AppendSealWrapped): the device's re-send after a 412.
func AppendPackWrapped(dst []byte, pi *PackedInformation, codec compress.Codec, gatewayKey *pisec.PublicKey) ([]byte, error) {
	return appendPack(dst, pi, codec, gatewayKey, pisec.AppendSealWrapped)
}

func appendPack(dst []byte, pi *PackedInformation, codec compress.Codec, gatewayKey *pisec.PublicKey,
	seal func(dst []byte, pk *pisec.PublicKey, plaintext []byte) ([]byte, error)) ([]byte, error) {
	docBuf := getScratch()
	defer putScratch(docBuf)
	doc, err := pi.AppendXML((*docBuf)[:0])
	*docBuf = doc[:0]
	if err != nil {
		return dst, err
	}
	if gatewayKey == nil {
		out, err := compress.AppendEncode(dst, codec, doc)
		if err != nil {
			return dst, fmt.Errorf("wire: compressing packed information: %w", err)
		}
		return out, nil
	}
	frameBuf := getScratch()
	defer putScratch(frameBuf)
	framed, err := compress.AppendEncode((*frameBuf)[:0], codec, doc)
	*frameBuf = framed[:0]
	if err != nil {
		return dst, fmt.Errorf("wire: compressing packed information: %w", err)
	}
	out, err := seal(dst, gatewayKey, framed)
	if err != nil {
		return dst, fmt.Errorf("wire: sealing packed information: %w", err)
	}
	return out, nil
}

// sealedPrefix sniffs pisec envelopes (pisec.envelopeMagic).
var sealedPrefix = []byte("PISEC1")

// Unpack reverses Pack at the gateway: verify + decrypt when sealed,
// then decompress and parse. kp may be nil only for unsealed bodies.
// The opened plaintext and decompressed document live in pooled scratch
// buffers — safe because the zero-DOM parser copies every string it
// returns — so the dispatch hot path allocates only the PI itself.
func Unpack(body []byte, kp *pisec.KeyPair) (*PackedInformation, error) {
	payload := body
	if bytes.HasPrefix(body, sealedPrefix) {
		if kp == nil {
			return nil, fmt.Errorf("wire: sealed packed information but gateway has no key pair")
		}
		openBuf := getScratch()
		defer putScratch(openBuf)
		pt, err := pisec.AppendOpen((*openBuf)[:0], kp, body)
		if err != nil {
			return nil, fmt.Errorf("wire: opening packed information: %w", err)
		}
		*openBuf = pt[:0]
		payload = pt
	}
	docBuf := getScratch()
	defer putScratch(docBuf)
	doc, err := compress.AppendDecode((*docBuf)[:0], payload)
	if err != nil {
		return nil, fmt.Errorf("wire: decompressing packed information: %w", err)
	}
	*docBuf = doc[:0]
	return ParsePackedInformation(doc)
}
