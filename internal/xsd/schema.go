// Package xsd implements an XML Schema (XSD) subset validator: global
// element declarations, named and anonymous complex types with sequence /
// choice / all content models and occurrence bounds, attribute
// declarations with use constraints, and simple-type checking with the
// common built-ins and restriction facets. It is the compute kernel of the
// paper's Schema Validation (SV) use case — the predominantly CPU-bound
// end of the AON workload spectrum.
//
// Validation is dual-use like the rest of the stack: plain, or
// instrumented to emit the micro-op stream of the equivalent compiled
// validator. Its branch outcomes follow element-name matching against the
// content model, which is what gives SV the highest branch-misprediction
// ratios in the paper's Table 6.
package xsd

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/xmldom"
)

// Schema is a compiled schema: global element declarations and named
// types.
type Schema struct {
	Elements map[string]*ElementDecl
	types    map[string]*ComplexType
	simple   map[string]*SimpleType
}

// ElementDecl declares one element.
type ElementDecl struct {
	Name      string
	Type      *ComplexType // nil for pure simple-type elements
	Simple    *SimpleType  // non-nil when the element carries typed text
	MinOccurs int
	MaxOccurs int // -1 = unbounded
}

// ComplexType is a content model plus attribute declarations.
type ComplexType struct {
	Name    string
	Content *Particle // nil = empty content (attributes only)
	Attrs   []AttrDecl
	Mixed   bool
}

// AttrDecl declares one attribute.
type AttrDecl struct {
	Name     string
	Type     *SimpleType
	Required bool
}

// ParticleKind classifies content-model particles.
type ParticleKind int

const (
	// PElement is a leaf particle referencing an element declaration.
	PElement ParticleKind = iota
	// PSequence requires its children in order.
	PSequence
	// PChoice requires exactly one of its children (per occurrence).
	PChoice
	// PAll requires each child at most once, any order.
	PAll
)

func (k ParticleKind) String() string {
	switch k {
	case PElement:
		return "element"
	case PSequence:
		return "sequence"
	case PChoice:
		return "choice"
	case PAll:
		return "all"
	}
	return "invalid"
}

// Particle is one node of a content model.
type Particle struct {
	Kind      ParticleKind
	Elem      *ElementDecl // PElement
	Children  []*Particle  // groups
	MinOccurs int
	MaxOccurs int // -1 = unbounded
}

// SimpleType is a built-in or restricted atomic type.
type SimpleType struct {
	Name string
	Base BuiltinType

	// Restriction facets (zero values = unconstrained).
	Enumeration []string
	MinLength   int
	MaxLength   int // 0 = unconstrained
	MinSet      bool
	Min         float64
	MaxSet      bool
	Max         float64
}

// BuiltinType enumerates supported primitive types.
type BuiltinType int

const (
	TString BuiltinType = iota
	TInt
	TDecimal
	TBoolean
	TDate
	TPositiveInt
	TToken
)

func (b BuiltinType) String() string {
	switch b {
	case TString:
		return "string"
	case TInt:
		return "integer"
	case TDecimal:
		return "decimal"
	case TBoolean:
		return "boolean"
	case TDate:
		return "date"
	case TPositiveInt:
		return "positiveInteger"
	case TToken:
		return "token"
	}
	return "invalid"
}

var builtins = map[string]BuiltinType{
	"string":             TString,
	"normalizedString":   TString,
	"token":              TToken,
	"int":                TInt,
	"integer":            TInt,
	"long":               TInt,
	"short":              TInt,
	"decimal":            TDecimal,
	"double":             TDecimal,
	"float":              TDecimal,
	"boolean":            TBoolean,
	"date":               TDate,
	"positiveInteger":    TPositiveInt,
	"nonNegativeInteger": TPositiveInt,
}

// SchemaError reports a malformed schema document.
type SchemaError struct{ Msg string }

func (e *SchemaError) Error() string { return "xsd: " + e.Msg }

func schemaErrf(format string, args ...any) error {
	return &SchemaError{Msg: fmt.Sprintf(format, args...)}
}

// ParseSchema compiles a schema from XSD source text.
func ParseSchema(src []byte) (*Schema, error) {
	doc, err := xmldom.Parse(src)
	if err != nil {
		return nil, err
	}
	root := doc.DocumentElement()
	if root == nil || root.Local != "schema" {
		return nil, schemaErrf("document element is not xs:schema")
	}
	s := &Schema{
		Elements: map[string]*ElementDecl{},
		types:    map[string]*ComplexType{},
		simple:   map[string]*SimpleType{},
	}
	// First pass: named types.
	for _, c := range root.ChildElements("") {
		switch c.Local {
		case "complexType":
			name, _ := c.Attr("name")
			if name == "" {
				return nil, schemaErrf("top-level complexType without name")
			}
			s.types[name] = &ComplexType{Name: name}
		case "simpleType":
			name, _ := c.Attr("name")
			if name == "" {
				return nil, schemaErrf("top-level simpleType without name")
			}
			st, err := s.parseSimpleType(c)
			if err != nil {
				return nil, err
			}
			st.Name = name
			s.simple[name] = st
		}
	}
	// Second pass: fill complex types (so forward references resolve).
	for _, c := range root.ChildElements("") {
		if c.Local == "complexType" {
			name, _ := c.Attr("name")
			ct, err := s.parseComplexType(c)
			if err != nil {
				return nil, err
			}
			*s.types[name] = *ct
			s.types[name].Name = name
		}
	}
	// Third pass: global elements.
	for _, c := range root.ChildElements("") {
		if c.Local == "element" {
			decl, err := s.parseElementDecl(c)
			if err != nil {
				return nil, err
			}
			s.Elements[decl.Name] = decl
		}
	}
	if len(s.Elements) == 0 {
		return nil, schemaErrf("schema declares no global elements")
	}
	return s, nil
}

// MustParseSchema is ParseSchema that panics, for init-time schemas.
func MustParseSchema(src string) *Schema {
	s, err := ParseSchema([]byte(src))
	if err != nil {
		panic(err)
	}
	return s
}

func stripPrefix(s string) string {
	_, local := xmldom.SplitName(s)
	return local
}

func (s *Schema) parseElementDecl(el *xmldom.Node) (*ElementDecl, error) {
	d := &ElementDecl{MinOccurs: 1, MaxOccurs: 1}
	d.Name, _ = el.Attr("name")
	if d.Name == "" {
		return nil, schemaErrf("element without name")
	}
	if v, ok := el.Attr("minOccurs"); ok {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return nil, schemaErrf("element %s: bad minOccurs %q", d.Name, v)
		}
		d.MinOccurs = n
	}
	if v, ok := el.Attr("maxOccurs"); ok {
		if v == "unbounded" {
			d.MaxOccurs = -1
		} else {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return nil, schemaErrf("element %s: bad maxOccurs %q", d.Name, v)
			}
			d.MaxOccurs = n
		}
	}
	if tn, ok := el.Attr("type"); ok {
		local := stripPrefix(tn)
		if bt, ok := builtins[local]; ok {
			d.Simple = &SimpleType{Name: local, Base: bt}
			return d, nil
		}
		if ct, ok := s.types[local]; ok {
			d.Type = ct
			return d, nil
		}
		if st, ok := s.simple[local]; ok {
			d.Simple = st
			return d, nil
		}
		return nil, schemaErrf("element %s: unknown type %q", d.Name, tn)
	}
	if ctEl := el.FirstChildElement("complexType"); ctEl != nil {
		ct, err := s.parseComplexType(ctEl)
		if err != nil {
			return nil, err
		}
		d.Type = ct
		return d, nil
	}
	if stEl := el.FirstChildElement("simpleType"); stEl != nil {
		st, err := s.parseSimpleType(stEl)
		if err != nil {
			return nil, err
		}
		d.Simple = st
		return d, nil
	}
	// No type: anyType-ish; accept any content as string.
	d.Simple = &SimpleType{Name: "string", Base: TString}
	return d, nil
}

func (s *Schema) parseComplexType(el *xmldom.Node) (*ComplexType, error) {
	ct := &ComplexType{}
	if v, ok := el.Attr("mixed"); ok && v == "true" {
		ct.Mixed = true
	}
	for _, c := range el.ChildElements("") {
		switch c.Local {
		case "sequence", "choice", "all":
			p, err := s.parseGroup(c)
			if err != nil {
				return nil, err
			}
			ct.Content = p
		case "attribute":
			a, err := s.parseAttrDecl(c)
			if err != nil {
				return nil, err
			}
			ct.Attrs = append(ct.Attrs, a)
		case "simpleContent":
			// <extension base="..."> with attributes.
			ext := c.FirstChildElement("extension")
			if ext == nil {
				return nil, schemaErrf("simpleContent without extension")
			}
			base, _ := ext.Attr("base")
			local := stripPrefix(base)
			bt, ok := builtins[local]
			if !ok {
				if st, found := s.simple[local]; found {
					ct.Mixed = true
					_ = st
					bt = st.Base
				} else {
					return nil, schemaErrf("simpleContent: unknown base %q", base)
				}
			}
			ct.Mixed = true
			_ = bt
			for _, ac := range ext.ChildElements("attribute") {
				a, err := s.parseAttrDecl(ac)
				if err != nil {
					return nil, err
				}
				ct.Attrs = append(ct.Attrs, a)
			}
		}
	}
	return ct, nil
}

func (s *Schema) parseGroup(el *xmldom.Node) (*Particle, error) {
	p := &Particle{MinOccurs: 1, MaxOccurs: 1}
	switch el.Local {
	case "sequence":
		p.Kind = PSequence
	case "choice":
		p.Kind = PChoice
	case "all":
		p.Kind = PAll
	default:
		return nil, schemaErrf("unknown group %q", el.Local)
	}
	if v, ok := el.Attr("minOccurs"); ok {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, schemaErrf("bad minOccurs %q", v)
		}
		p.MinOccurs = n
	}
	if v, ok := el.Attr("maxOccurs"); ok {
		if v == "unbounded" {
			p.MaxOccurs = -1
		} else {
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, schemaErrf("bad maxOccurs %q", v)
			}
			p.MaxOccurs = n
		}
	}
	for _, c := range el.ChildElements("") {
		switch c.Local {
		case "element":
			d, err := s.parseElementDecl(c)
			if err != nil {
				return nil, err
			}
			p.Children = append(p.Children, &Particle{
				Kind: PElement, Elem: d,
				MinOccurs: d.MinOccurs, MaxOccurs: d.MaxOccurs,
			})
		case "sequence", "choice", "all":
			if p.Kind == PAll {
				// XSD 1.0: an all-group holds element particles only, and
				// the validator's all-matching relies on it.
				return nil, schemaErrf("all group may contain only elements, found %q", c.Local)
			}
			sub, err := s.parseGroup(c)
			if err != nil {
				return nil, err
			}
			p.Children = append(p.Children, sub)
		default:
			return nil, schemaErrf("unsupported particle %q", c.Local)
		}
	}
	return p, nil
}

func (s *Schema) parseAttrDecl(el *xmldom.Node) (AttrDecl, error) {
	a := AttrDecl{Type: &SimpleType{Name: "string", Base: TString}}
	a.Name, _ = el.Attr("name")
	if a.Name == "" {
		return a, schemaErrf("attribute without name")
	}
	if v, ok := el.Attr("use"); ok && v == "required" {
		a.Required = true
	}
	if tn, ok := el.Attr("type"); ok {
		local := stripPrefix(tn)
		if bt, found := builtins[local]; found {
			a.Type = &SimpleType{Name: local, Base: bt}
		} else if st, found := s.simple[local]; found {
			a.Type = st
		} else {
			return a, schemaErrf("attribute %s: unknown type %q", a.Name, tn)
		}
	}
	return a, nil
}

func (s *Schema) parseSimpleType(el *xmldom.Node) (*SimpleType, error) {
	r := el.FirstChildElement("restriction")
	if r == nil {
		return nil, schemaErrf("simpleType without restriction")
	}
	base, _ := r.Attr("base")
	bt, ok := builtins[stripPrefix(base)]
	if !ok {
		return nil, schemaErrf("restriction: unknown base %q", base)
	}
	st := &SimpleType{Base: bt}
	for _, f := range r.ChildElements("") {
		v, _ := f.Attr("value")
		switch f.Local {
		case "enumeration":
			st.Enumeration = append(st.Enumeration, v)
		case "minLength":
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, schemaErrf("bad minLength %q", v)
			}
			st.MinLength = n
		case "maxLength":
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, schemaErrf("bad maxLength %q", v)
			}
			st.MaxLength = n
		case "minInclusive":
			x, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, schemaErrf("bad minInclusive %q", v)
			}
			st.MinSet, st.Min = true, x
		case "maxInclusive":
			x, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, schemaErrf("bad maxInclusive %q", v)
			}
			st.MaxSet, st.Max = true, x
		case "pattern":
			// Patterns are noted but not enforced (no regexp engine in
			// the validation hot path; see DESIGN.md).
		default:
			return nil, schemaErrf("unsupported facet %q", f.Local)
		}
	}
	return st, nil
}

// typeName is a debugging helper.
func (d *ElementDecl) typeName() string {
	switch {
	case d.Type != nil && d.Type.Name != "":
		return d.Type.Name
	case d.Type != nil:
		return "anonymous"
	case d.Simple != nil:
		return d.Simple.Base.String()
	}
	return "any"
}

var _ = strings.TrimSpace // reserved for facet normalization extensions
