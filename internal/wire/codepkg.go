package wire

import (
	"encoding/hex"
	"fmt"

	"pdagent/internal/kxml"
)

// CodePackage is one downloadable MA application (§3.1 Service
// Subscription): the MAScript source plus catalogue metadata. The
// paper observes MA code runs 1 KB–8 KB and is "compressed before
// download into the wireless device".
type CodePackage struct {
	// CodeID is the unique id the platform assigns "for the purpose of
	// authorization in later execution".
	CodeID string
	// Name is the human-readable application name.
	Name string
	// Version distinguishes revisions of the same application.
	Version string
	// Description summarises what the application does.
	Description string
	// Source is the MAScript program.
	Source string
}

// EncodeXML renders the package element (not a full document; it
// nests inside catalogues and subscriptions).
func (cp *CodePackage) EncodeXML() *kxml.Node {
	n := kxml.NewElement("code-package")
	n.SetAttr("id", cp.CodeID)
	n.SetAttr("name", cp.Name)
	n.SetAttr("version", cp.Version)
	n.AddElement("description").AddText(cp.Description)
	n.AddElement("source").AddText(cp.Source)
	return n
}

// Subscription is the gateway's response to a subscribe request: the
// code package, the per-subscription secret the dispatch key derives
// from, and the gateway's public key for sealing future PIs.
type Subscription struct {
	Package *CodePackage
	// Secret is the subscription secret (issued once, stored in the
	// device's RMS database).
	Secret []byte
	// GatewayKey is the gateway's marshalled public key.
	GatewayKey string
	// Gateway is the issuing gateway's address.
	Gateway string
}

// EncodeXML renders the subscription document (AppendXML into a fresh
// buffer).
func (s *Subscription) EncodeXML() ([]byte, error) {
	return s.AppendXML(nil)
}

// ParseSubscription parses a subscription document on the zero-DOM
// fast path (no *kxml.Node tree; see pull.go).
func ParseSubscription(doc []byte) (*Subscription, error) {
	s := newScanner(doc)
	root, err := s.root("subscription", "subscription")
	if err != nil {
		return nil, err
	}
	sub := &Subscription{Gateway: evAttrDefault(root, "gateway", "")}
	var secretHex string
	sawSecret, sawKey := false, false
	for {
		ev, ok, err := s.child()
		if err != nil {
			return nil, fmt.Errorf("wire: subscription: %w", err)
		}
		if !ok {
			break
		}
		switch {
		case ev.Name == "code-package" && sub.Package == nil:
			if sub.Package, err = parseCodePackagePull(&s, ev); err != nil {
				return nil, err
			}
		case ev.Name == "secret" && !sawSecret:
			sawSecret = true
			if secretHex, err = s.text(); err != nil {
				return nil, fmt.Errorf("wire: subscription: %w", err)
			}
		case ev.Name == "gateway-key" && !sawKey:
			sawKey = true
			if sub.GatewayKey, err = s.text(); err != nil {
				return nil, fmt.Errorf("wire: subscription: %w", err)
			}
		default:
			if err := s.skip(); err != nil {
				return nil, fmt.Errorf("wire: subscription: %w", err)
			}
		}
	}
	if err := s.finish(); err != nil {
		return nil, fmt.Errorf("wire: subscription: %w", err)
	}
	if sub.Package == nil {
		return nil, fmt.Errorf("wire: expected <code-package>")
	}
	secret, err := hex.DecodeString(secretHex)
	if err != nil {
		return nil, fmt.Errorf("wire: subscription secret: %w", err)
	}
	if len(secret) == 0 {
		return nil, fmt.Errorf("wire: subscription missing secret")
	}
	sub.Secret = secret
	return sub, nil
}

// parseCodePackagePull decodes a just-opened <code-package> element on
// the pull path.
func parseCodePackagePull(s *scanner, ev kxml.Event) (*CodePackage, error) {
	cp := &CodePackage{
		CodeID:  evAttrDefault(ev, "id", ""),
		Name:    evAttrDefault(ev, "name", ""),
		Version: evAttrDefault(ev, "version", ""),
	}
	sawDesc, sawSrc := false, false
	for {
		cev, ok, err := s.child()
		if err != nil {
			return nil, fmt.Errorf("wire: code package: %w", err)
		}
		if !ok {
			break
		}
		switch {
		case cev.Name == "description" && !sawDesc:
			sawDesc = true
			if cp.Description, err = s.text(); err != nil {
				return nil, fmt.Errorf("wire: code package: %w", err)
			}
		case cev.Name == "source" && !sawSrc:
			sawSrc = true
			if cp.Source, err = s.text(); err != nil {
				return nil, fmt.Errorf("wire: code package: %w", err)
			}
		default:
			if err := s.skip(); err != nil {
				return nil, fmt.Errorf("wire: code package: %w", err)
			}
		}
	}
	if cp.CodeID == "" {
		return nil, fmt.Errorf("wire: code package missing id")
	}
	if cp.Source == "" {
		return nil, fmt.Errorf("wire: code package %q missing source", cp.CodeID)
	}
	return cp, nil
}

// Catalogue is the gateway's list of downloadable applications.
type Catalogue struct {
	Gateway  string
	Packages []*CodePackage
}

// EncodeXML renders the catalogue document (metadata only — sources
// are downloaded per package at subscription).
func (c *Catalogue) EncodeXML() []byte {
	root := kxml.NewElement("catalogue")
	root.SetAttr("gateway", c.Gateway)
	for _, p := range c.Packages {
		e := root.AddElement("entry")
		e.SetAttr("id", p.CodeID)
		e.SetAttr("name", p.Name)
		e.SetAttr("version", p.Version)
		e.AddText(p.Description)
	}
	return root.EncodeDocument()
}

// CatalogueEntry is one row of a parsed catalogue.
type CatalogueEntry struct {
	CodeID, Name, Version, Description string
}

// ParseCatalogue parses a catalogue document into entries.
func ParseCatalogue(doc []byte) (gateway string, entries []CatalogueEntry, err error) {
	root, err := kxml.ParseBytes(doc)
	if err != nil {
		return "", nil, fmt.Errorf("wire: catalogue: %w", err)
	}
	if root.Name != "catalogue" {
		return "", nil, fmt.Errorf("wire: unexpected root <%s>", root.Name)
	}
	for _, e := range root.FindAll("entry") {
		entries = append(entries, CatalogueEntry{
			CodeID:      e.AttrDefault("id", ""),
			Name:        e.AttrDefault("name", ""),
			Version:     e.AttrDefault("version", ""),
			Description: e.TextContent(),
		})
	}
	return root.AttrDefault("gateway", ""), entries, nil
}

// GatewayList is the central server's gateway address list (§3.5:
// "PDAgent will download a list of gateway addresses from the central
// server").
type GatewayList struct {
	Addresses []string
}

// EncodeXML renders the gateway list document.
func (g *GatewayList) EncodeXML() []byte {
	root := kxml.NewElement("gateway-list")
	for _, a := range g.Addresses {
		root.AddElement("gateway").SetAttr("addr", a)
	}
	return root.EncodeDocument()
}

// ParseGatewayList parses a gateway list document.
func ParseGatewayList(doc []byte) (*GatewayList, error) {
	root, err := kxml.ParseBytes(doc)
	if err != nil {
		return nil, fmt.Errorf("wire: gateway list: %w", err)
	}
	if root.Name != "gateway-list" {
		return nil, fmt.Errorf("wire: unexpected root <%s>", root.Name)
	}
	out := &GatewayList{}
	for _, g := range root.FindAll("gateway") {
		if a, ok := g.Attr("addr"); ok && a != "" {
			out.Addresses = append(out.Addresses, a)
		}
	}
	return out, nil
}
