package xsd_test

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/perf/trace"
	"repro/internal/xmldom"
	"repro/internal/xsd"
)

// oracleValidator is validate.go as of commit ec66e76, kept as the
// reference FuzzXSDValidate and the linearity tests compare against:
// lookahead by running the whole validation silently (so an optional or
// repeated subtree is validated twice, 2^depth on a recursive schema), a
// path string built per element, a ChildElements slice per element. Only
// the names, the xsd. qualifiers and the elements counter differ.
type oracleValidator struct {
	s  *xsd.Schema
	em trace.Emitter

	errs []*xsd.ValidationError

	// elements counts validateElement calls, silent ones included: the
	// unit of work the rewrite made linear.
	elements int
}

var (
	oracleCode  = trace.NewCodeRegion(4096)
	pcElemMatch = oracleCode.Site()
	pcOccurs    = oracleCode.Site()
	pcChoice    = oracleCode.Site()
	pcAttrReq   = oracleCode.Site()
	pcFacet     = oracleCode.Site()
	pcCharScan  = oracleCode.Site()
	pcMixed     = oracleCode.Site()
)

func newOracleValidator(s *xsd.Schema, em trace.Emitter) *oracleValidator {
	if em == nil {
		em = trace.Nop{}
	}
	return &oracleValidator{s: s, em: em}
}

// Validate checks an instance document, returning all violations.
func (v *oracleValidator) Validate(doc *xmldom.Node) []*xsd.ValidationError {
	v.errs = nil
	root := doc
	if doc.Kind == xmldom.Document {
		root = doc.DocumentElement()
	}
	if root == nil {
		v.fail("/", "empty document")
		return v.errs
	}
	decl := v.s.Elements[root.Local]
	v.emitNameLookup(root.Local, decl != nil)
	if decl == nil {
		v.fail("/"+root.Local, "no global declaration for element")
		return v.errs
	}
	v.validateElement(decl, root, "/"+root.Local)
	return v.errs
}

func (v *oracleValidator) fail(path, format string, args ...any) {
	v.errs = append(v.errs, &xsd.ValidationError{Path: path, Msg: fmt.Sprintf(format, args...)})
}

// probe runs fn speculatively: errors recorded inside are discarded and no
// micro-ops are emitted. Deterministic XSD content models make lookahead
// cheap; the compiled validator's dispatch cost is modeled by the loud
// branch the caller emits on the probe's verdict.
func (v *oracleValidator) probe(fn func() int) int {
	savedEm := v.em
	savedLen := len(v.errs)
	v.em = trace.Nop{}
	n := fn()
	v.em = savedEm
	v.errs = v.errs[:savedLen]
	return n
}

func (v *oracleValidator) probeParticle(p *xsd.Particle, kids []*xmldom.Node, pos int, path string) int {
	return v.probe(func() int { return v.matchParticle(p, kids, pos, path) })
}

func (v *oracleValidator) probeOnce(p *xsd.Particle, kids []*xmldom.Node, pos int, path string) int {
	return v.probe(func() int { return v.matchOnce(p, kids, pos, path, false) })
}

func (v *oracleValidator) validateElement(decl *xsd.ElementDecl, el *xmldom.Node, path string) {
	v.elements++
	v.em.Load(el.SimAddr, 3)
	v.em.ALU(40) // declaration lookup, occurrence bookkeeping
	switch {
	case decl.Type != nil:
		v.validateComplex(decl.Type, el, path)
	case decl.Simple != nil:
		text := el.TextContent()
		if kids := el.ChildElements(""); len(kids) > 0 {
			v.fail(path, "element children not allowed in simple type %s", decl.Simple.Base)
			return
		}
		v.checkSimple(decl.Simple, text, path)
	}
}

func (v *oracleValidator) validateComplex(ct *xsd.ComplexType, el *xmldom.Node, path string) {
	// Attributes.
	for _, ad := range ct.Attrs {
		val, present := el.Attr(ad.Name)
		v.em.ALU(4 + len(ad.Name)/2)
		v.em.Branch(pcAttrReq, present)
		if !present {
			if ad.Required {
				v.fail(path, "missing required attribute %q", ad.Name)
			}
			continue
		}
		v.checkSimple(ad.Type, val, path+"/@"+ad.Name)
	}
	// Unexpected attributes (xmlns declarations are tolerated).
	for _, a := range el.Attrs {
		if strings.HasPrefix(a.Name, "xmlns") || strings.Contains(a.Name, ":") {
			continue
		}
		known := false
		for _, ad := range ct.Attrs {
			if ad.Name == a.Name {
				known = true
				break
			}
		}
		v.em.Branch(pcAttrReq, known)
		if !known {
			v.fail(path, "undeclared attribute %q", a.Name)
		}
	}

	kids := el.ChildElements("")
	// Non-whitespace text inside element-only content.
	if !ct.Mixed {
		for _, c := range el.Children {
			if c.Kind == xmldom.Text {
				ws := strings.TrimSpace(c.Data) == ""
				v.emitCharScan(c.Data)
				v.em.Branch(pcMixed, ws)
				if !ws {
					v.fail(path, "character content not allowed in element-only type")
					break
				}
			}
		}
	}

	if ct.Content == nil {
		if len(kids) > 0 && !ct.Mixed {
			v.fail(path, "no children allowed, found <%s>", kids[0].Local)
		}
		return
	}

	pos := 0
	n := v.matchParticle(ct.Content, kids, 0, path)
	if n < 0 {
		return // error already recorded
	}
	pos = n
	if pos < len(kids) {
		v.fail(path, "unexpected element <%s>", kids[pos].Local)
	}
}

// matchParticle consumes children of kids starting at pos according to the
// particle, returning the new position or -1 after recording an error.
func (v *oracleValidator) matchParticle(p *xsd.Particle, kids []*xmldom.Node, pos int, path string) int {
	occurs := 0
	for {
		v.em.ALU(3)
		required := occurs < p.MinOccurs
		if !required {
			// Optional occurrence: look ahead quietly so a non-match
			// leaves no spurious errors.
			if v.probeOnce(p, kids, pos, path) < 0 {
				v.em.Branch(pcOccurs, false)
				return pos
			}
		}
		next := v.matchOnce(p, kids, pos, path, required)
		progressed := next > pos
		v.em.Branch(pcOccurs, progressed)
		if next < 0 {
			if occurs >= p.MinOccurs {
				return pos // optional tail not present
			}
			return -1
		}
		if !progressed && p.Kind != xsd.PElement {
			// Group matched emptily (all-optional children): count one
			// occurrence and stop to avoid spinning.
			occurs++
			if occurs >= p.MinOccurs {
				return next
			}
			return next
		}
		pos = next
		occurs++
		if p.MaxOccurs >= 0 && occurs >= p.MaxOccurs {
			return pos
		}
		if pos >= len(kids) {
			if occurs < p.MinOccurs {
				v.fail(path, "%s requires at least %d occurrences, found %d", p.Kind, p.MinOccurs, occurs)
				return -1
			}
			return pos
		}
	}
}

// matchOnce tries to match one occurrence of p at pos. Returns the new
// position, or -1 if it does not match (recording an error only when
// required is true).
func (v *oracleValidator) matchOnce(p *xsd.Particle, kids []*xmldom.Node, pos int, path string, required bool) int {
	switch p.Kind {
	case xsd.PElement:
		if pos >= len(kids) {
			if required {
				v.fail(path, "missing required element <%s>", p.Elem.Name)
			}
			return -1
		}
		match := kids[pos].Local == p.Elem.Name
		v.emitNameCompare(kids[pos].Local, p.Elem.Name, match)
		if !match {
			if required {
				v.fail(path, "expected <%s>, found <%s>", p.Elem.Name, kids[pos].Local)
			}
			return -1
		}
		v.validateElement(p.Elem, kids[pos], path+"/"+kids[pos].Local)
		return pos + 1
	case xsd.PSequence:
		cur := pos
		for _, c := range p.Children {
			next := v.matchParticle(c, kids, cur, path)
			if next < 0 {
				if required {
					return -1
				}
				// Distinguish "matched nothing at all" from a partial
				// match: a partial match of a required sequence is an
				// error either way; we already recorded it.
				return -1
			}
			cur = next
		}
		return cur
	case xsd.PChoice:
		for _, c := range p.Children {
			n := v.probeParticle(c, kids, pos, path)
			ok := n > pos
			v.em.Branch(pcChoice, ok)
			if ok {
				return v.matchParticle(c, kids, pos, path)
			}
		}
		// Allow an all-optional branch to satisfy the choice emptily.
		for _, c := range p.Children {
			if v.probeParticle(c, kids, pos, path) == pos {
				return pos
			}
		}
		if required {
			v.fail(path, "no branch of choice matched at <%s>", kidName(kids, pos))
		}
		return -1
	case xsd.PAll:
		used := make([]bool, len(p.Children))
		cur := pos
		for cur < len(kids) {
			matched := false
			for i, c := range p.Children {
				if used[i] || c.Kind != xsd.PElement {
					continue
				}
				ok := kids[cur].Local == c.Elem.Name
				v.emitNameCompare(kids[cur].Local, c.Elem.Name, ok)
				if ok {
					v.validateElement(c.Elem, kids[cur], path+"/"+kids[cur].Local)
					used[i] = true
					cur++
					matched = true
					break
				}
			}
			if !matched {
				break
			}
		}
		for i, c := range p.Children {
			if !used[i] && c.MinOccurs > 0 {
				if required {
					v.fail(path, "missing required element <%s> in all-group", c.Elem.Name)
					return -1
				}
				return -1
			}
		}
		return cur
	}
	return -1
}

func kidName(kids []*xmldom.Node, pos int) string {
	if pos < len(kids) {
		return kids[pos].Local
	}
	return "(end)"
}

// checkSimple validates text against a simple type, scanning the
// characters the way a compiled validator would.
func (v *oracleValidator) checkSimple(st *xsd.SimpleType, text, path string) {
	v.emitCharScan(text)
	val := strings.TrimSpace(text)
	switch st.Base {
	case xsd.TString:
		// always lexically valid
	case xsd.TToken:
		if val != strings.Join(strings.Fields(val), " ") {
			v.fail(path, "not a valid token: %q", text)
		}
	case xsd.TInt:
		if _, err := strconv.ParseInt(val, 10, 64); err != nil {
			v.fail(path, "not a valid integer: %q", val)
			v.em.Branch(pcFacet, false)
			return
		}
	case xsd.TPositiveInt:
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil || n <= 0 {
			v.fail(path, "not a positive integer: %q", val)
			v.em.Branch(pcFacet, false)
			return
		}
	case xsd.TDecimal:
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			v.fail(path, "not a valid decimal: %q", val)
			v.em.Branch(pcFacet, false)
			return
		}
	case xsd.TBoolean:
		if val != "true" && val != "false" && val != "0" && val != "1" {
			v.fail(path, "not a valid boolean: %q", val)
			v.em.Branch(pcFacet, false)
			return
		}
	case xsd.TDate:
		if !isDate(val) {
			v.fail(path, "not a valid date: %q", val)
			v.em.Branch(pcFacet, false)
			return
		}
	}
	v.em.Branch(pcFacet, true)

	if len(st.Enumeration) > 0 {
		found := false
		for _, e := range st.Enumeration {
			ok := e == val
			v.emitNameCompare(val, e, ok)
			if ok {
				found = true
				break
			}
		}
		if !found {
			v.fail(path, "value %q not in enumeration", val)
		}
	}
	if st.MinLength > 0 && len(val) < st.MinLength {
		v.fail(path, "length %d below minLength %d", len(val), st.MinLength)
	}
	if st.MaxLength > 0 && len(val) > st.MaxLength {
		v.fail(path, "length %d above maxLength %d", len(val), st.MaxLength)
	}
	if st.MinSet || st.MaxSet {
		f, err := strconv.ParseFloat(val, 64)
		if err == nil {
			if st.MinSet && f < st.Min {
				v.fail(path, "value %v below minInclusive %v", f, st.Min)
			}
			if st.MaxSet && f > st.Max {
				v.fail(path, "value %v above maxInclusive %v", f, st.Max)
			}
		}
	}
}

func isDate(s string) bool {
	// YYYY-MM-DD
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return false
	}
	for i, c := range s {
		if i == 4 || i == 7 {
			continue
		}
		if c < '0' || c > '9' {
			return false
		}
	}
	m := (s[5]-'0')*10 + (s[6] - '0')
	d := (s[8]-'0')*10 + (s[9] - '0')
	return m >= 1 && m <= 12 && d >= 1 && d <= 31
}

// ---- instrumentation helpers ----

func (v *oracleValidator) emitNameLookup(name string, hit bool) {
	v.em.ALU(6 + len(name))
	v.em.Branch(pcElemMatch, hit)
}

func (v *oracleValidator) emitNameCompare(a, b string, match bool) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	v.em.ALU(2 + n/4)
	v.em.Branch(pcElemMatch, match)
}

func (v *oracleValidator) emitCharScan(s string) {
	words := (len(s) + trace.WordBytes - 1) / trace.WordBytes
	for w := 0; w < words; w++ {
		v.em.ALU(10) // lexical-space checks, whitespace facets
		if w%2 == 0 {
			v.em.Branch(pcCharScan, w+2 < words)
		}
	}
	v.em.ALU(len(s) % trace.WordBytes)
}
