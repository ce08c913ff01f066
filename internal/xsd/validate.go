package xsd

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/perf/trace"
	"repro/internal/xmldom"
)

// ValidationError reports one schema violation.
type ValidationError struct {
	Path string
	Msg  string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("xsd: %s: %s", e.Path, e.Msg)
}

// Validator validates instance documents against a schema, optionally
// emitting the micro-op stream of the equivalent compiled validator. The
// content-model automaton branches on incoming element names — actual
// data-dependent outcomes — so validation is the branchiest, least
// predictable kernel in the workload suite, matching the paper's
// observation that SV shows the highest misprediction ratios (Table 6).
//
// One walk serves two consumers. Validate builds a report: each violation
// becomes a ValidationError with its path and message. Valid wants the
// verdict only: the walk is the same, every violation is still found, but
// it is only counted, so an invalid document allocates nothing.
type Validator struct {
	s  *Schema
	em trace.Emitter
	// metered is false when em discards everything (trace.IsNop): the live
	// path then pays no emit call per node or per word of text.
	metered bool
	// report is set by Validate and clear for Valid (see reject).
	report bool

	// root is the element Validate was called on: error paths start there.
	root *xmldom.Node
	// quiet is non-zero during lookahead (see probe): nothing is emitted,
	// nothing reported and no matched element is descended into.
	quiet int
	bad   int // violations found
	errs  []*ValidationError
}

var (
	valCode     = trace.NewCodeRegion(4096)
	pcElemMatch = valCode.Site()
	pcOccurs    = valCode.Site()
	pcChoice    = valCode.Site()
	pcAttrReq   = valCode.Site()
	pcFacet     = valCode.Site()
	pcCharScan  = valCode.Site()
	pcMixed     = valCode.Site()
)

// NewValidator builds a validator for a schema; em may be nil for plain
// library use.
func NewValidator(s *Schema, em trace.Emitter) *Validator {
	return &Validator{s: s, em: em, metered: !trace.IsNop(em)}
}

// Validate checks an instance document (or element) against the schema's
// global element declarations. It returns all violations found (nil means
// valid).
func Validate(s *Schema, doc *xmldom.Node) []*ValidationError {
	v := Validator{s: s} // unmetered; stays on the stack
	return v.Validate(doc)
}

// Valid reports whether doc satisfies s: Validate's verdict without its
// report.
func Valid(s *Schema, doc *xmldom.Node) bool {
	v := Validator{s: s}
	return v.Valid(doc)
}

// Validate checks an instance document, returning all violations.
func (v *Validator) Validate(doc *xmldom.Node) []*ValidationError {
	v.report, v.errs = true, nil
	v.walk(doc)
	return v.errs
}

// Valid checks an instance document, returning only the verdict.
func (v *Validator) Valid(doc *xmldom.Node) bool {
	v.report = false
	return v.walk(doc) == 0
}

// walk validates doc and returns how many violations it found.
func (v *Validator) walk(doc *xmldom.Node) int {
	v.bad = 0
	root := doc
	if doc.Kind == xmldom.Document {
		root = doc.DocumentElement()
	}
	if root == nil {
		if v.reject() {
			v.errs = append(v.errs, &ValidationError{Path: "/", Msg: "empty document"})
		}
		return v.bad
	}
	v.root = root
	decl := v.s.Elements[root.Local]
	v.emitNameLookup(root.Local, decl != nil)
	if decl == nil {
		if v.reject() {
			v.fail(root, "no global declaration for element")
		}
		return v.bad
	}
	v.validateElement(decl, root)
	return v.bad
}

// reject counts a violation and reports whether to describe it. Every
// violation site reads
//
//	if v.reject() { v.fail(el, format, args...) }
//
// because the call to fail boxes its operands before fail could look at
// v.report: Valid must not reach it at all.
func (v *Validator) reject() bool {
	v.bad++
	return v.report
}

// fail records a violation at element el.
func (v *Validator) fail(el *xmldom.Node, format string, args ...any) {
	v.failAttr(el, "", format, args...)
}

// failAttr records a violation at el's attribute attr, or at el itself
// when attr is "". The path is only built here, from Parent links: a valid
// document never pays for one.
func (v *Validator) failAttr(el *xmldom.Node, attr, format string, args ...any) {
	buf := make([]byte, 0, 96)
	buf = v.appendPath(buf, el)
	if attr != "" {
		buf = append(append(buf, "/@"...), attr...)
	}
	v.errs = append(v.errs, &ValidationError{Path: string(buf), Msg: fmt.Sprintf(format, args...)})
}

// appendPath appends "/"+Local for el and each ancestor up to the
// validation root, outermost first.
func (v *Validator) appendPath(buf []byte, el *xmldom.Node) []byte {
	if el != v.root && el.Parent != nil {
		buf = v.appendPath(buf, el.Parent)
	}
	return append(append(buf, '/'), el.Local...)
}

// probe looks ahead: it matches p against el's children from cur (one
// occurrence if once, else up to maxOccurs) and returns where the match
// would end, or -1. Lookahead decides on names and occurrence counts only:
// a matched element's own content is not visited, because its validity
// never changes how far the match reaches — the loud pass that follows
// validates it, once. Nothing is emitted or reported; the compiled
// validator's dispatch cost is modeled by the loud branch the caller emits
// on the probe's verdict.
func (v *Validator) probe(p *Particle, el *xmldom.Node, cur int, once bool) int {
	metered := v.metered
	v.metered = false
	v.quiet++
	if once {
		cur = v.matchOnce(p, el, cur, false)
	} else {
		cur = v.matchParticle(p, el, cur)
	}
	v.quiet--
	v.metered = metered
	return cur
}

// nextElem returns the index of el's first element child at or after i,
// len(el.Children) when there is none. Content-model positions are such
// indices.
func nextElem(el *xmldom.Node, i int) int {
	for i < len(el.Children) && el.Children[i].Kind != xmldom.Element {
		i++
	}
	return i
}

func (v *Validator) validateElement(decl *ElementDecl, el *xmldom.Node) {
	v.load(el.SimAddr, 3)
	v.alu(40) // declaration lookup, occurrence bookkeeping
	switch {
	case decl.Type != nil:
		v.validateComplex(decl.Type, el)
	case decl.Simple != nil:
		if nextElem(el, 0) < len(el.Children) {
			if v.reject() {
				v.fail(el, "element children not allowed in simple type %s", decl.Simple.Base)
			}
			return
		}
		v.checkSimple(decl.Simple, el.TextContent(), el, "")
	}
}

func (v *Validator) validateComplex(ct *ComplexType, el *xmldom.Node) {
	// Attributes.
	for _, ad := range ct.Attrs {
		val, present := el.Attr(ad.Name)
		v.alu(4 + len(ad.Name)/2)
		v.branch(pcAttrReq, present)
		if !present {
			if ad.Required && v.reject() {
				v.fail(el, "missing required attribute %q", ad.Name)
			}
			continue
		}
		v.checkSimple(ad.Type, val, el, ad.Name)
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
		v.branch(pcAttrReq, known)
		if !known && v.reject() {
			v.fail(el, "undeclared attribute %q", a.Name)
		}
	}

	// Non-whitespace text inside element-only content.
	if !ct.Mixed {
		for _, c := range el.Children {
			if c.Kind == xmldom.Text {
				ws := strings.TrimSpace(c.Data) == ""
				v.emitCharScan(c.Data)
				v.branch(pcMixed, ws)
				if !ws {
					if v.reject() {
						v.fail(el, "character content not allowed in element-only type")
					}
					break
				}
			}
		}
	}

	first := nextElem(el, 0)
	if ct.Content == nil {
		if first < len(el.Children) && !ct.Mixed && v.reject() {
			v.fail(el, "no children allowed, found <%s>", el.Children[first].Local)
		}
		return
	}

	end := v.matchParticle(ct.Content, el, first)
	if end < 0 {
		return // error already recorded
	}
	if end < len(el.Children) && v.reject() {
		v.fail(el, "unexpected element <%s>", el.Children[end].Local)
	}
}

// matchParticle consumes element children of el from position pos (see
// nextElem) according to the particle, returning the new position or -1
// after recording an error.
func (v *Validator) matchParticle(p *Particle, el *xmldom.Node, pos int) int {
	occurs := 0
	for {
		v.alu(3)
		required := occurs < p.MinOccurs
		if !required {
			// Optional occurrence: look ahead quietly so a non-match
			// leaves no spurious errors.
			if v.probe(p, el, pos, true) < 0 {
				v.branch(pcOccurs, false)
				return pos
			}
		}
		next := v.matchOnce(p, el, pos, required && v.quiet == 0)
		progressed := next > pos
		v.branch(pcOccurs, progressed)
		if next < 0 {
			if required {
				return -1
			}
			return pos // optional tail not present
		}
		if !progressed && p.Kind != PElement {
			// Group matched emptily (all-optional children): count one
			// occurrence and stop to avoid spinning.
			return next
		}
		pos = next
		occurs++
		if p.MaxOccurs >= 0 && occurs >= p.MaxOccurs {
			return pos
		}
		if pos == len(el.Children) {
			if occurs < p.MinOccurs {
				if v.quiet == 0 && v.reject() {
					v.fail(el, "%s requires at least %d occurrences, found %d", p.Kind, p.MinOccurs, occurs)
				}
				return -1
			}
			return pos
		}
	}
}

// matchOnce tries to match one occurrence of p at pos. It returns the new
// position, or -1 if p does not match, recording why only when report is
// true. Outside lookahead a matched element is validated in turn.
func (v *Validator) matchOnce(p *Particle, el *xmldom.Node, pos int, report bool) int {
	kids := el.Children
	switch p.Kind {
	case PElement:
		if pos == len(kids) {
			if report && v.reject() {
				v.fail(el, "missing required element <%s>", p.Elem.Name)
			}
			return -1
		}
		match := kids[pos].Local == p.Elem.Name
		v.emitNameCompare(kids[pos].Local, p.Elem.Name, match)
		if !match {
			if report && v.reject() {
				v.fail(el, "expected <%s>, found <%s>", p.Elem.Name, kids[pos].Local)
			}
			return -1
		}
		if v.quiet == 0 {
			v.validateElement(p.Elem, kids[pos])
		}
		return nextElem(el, pos+1)
	case PSequence:
		// A child that fails has recorded the error itself, whether the
		// sequence matched nothing at all or only in part.
		for _, c := range p.Children {
			if pos = v.matchParticle(c, el, pos); pos < 0 {
				return -1
			}
		}
		return pos
	case PChoice:
		for _, c := range p.Children {
			ok := v.probe(c, el, pos, false) > pos
			v.branch(pcChoice, ok)
			if ok {
				return v.matchParticle(c, el, pos)
			}
		}
		// Allow an all-optional branch to satisfy the choice emptily.
		for _, c := range p.Children {
			if v.probe(c, el, pos, false) == pos {
				return pos
			}
		}
		if report && v.reject() {
			name := "(end)"
			if pos < len(kids) {
				name = kids[pos].Local
			}
			v.fail(el, "no branch of choice matched at <%s>", name)
		}
		return -1
	case PAll:
		// Children are element particles only (parseGroup refuses groups).
		var few [64]bool
		used := few[:]
		if len(p.Children) > len(few) {
			used = make([]bool, len(p.Children))
		}
		for pos < len(kids) {
			matched := false
			for i, c := range p.Children {
				if used[i] {
					continue
				}
				ok := kids[pos].Local == c.Elem.Name
				v.emitNameCompare(kids[pos].Local, c.Elem.Name, ok)
				if ok {
					if v.quiet == 0 {
						v.validateElement(c.Elem, kids[pos])
					}
					used[i] = true
					pos = nextElem(el, pos+1)
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
				if report && v.reject() {
					v.fail(el, "missing required element <%s> in all-group", c.Elem.Name)
				}
				return -1
			}
		}
		return pos
	}
	return -1
}

// checkSimple validates text — el's content, or its attribute attr when
// that is not "" — against a simple type, scanning the characters the way
// a compiled validator would.
func (v *Validator) checkSimple(st *SimpleType, text string, el *xmldom.Node, attr string) {
	v.emitCharScan(text)
	val := strings.TrimSpace(text)
	var refused string // why val is outside the base type's lexical space
	switch st.Base {
	case TString:
		// always lexically valid
	case TToken:
		if !isToken(val) && v.reject() {
			v.failAttr(el, attr, "not a valid token: %q", text)
		}
	case TInt:
		if _, ok := parseInt(val); !ok {
			refused = "not a valid integer"
		}
	case TPositiveInt:
		if n, ok := parseInt(val); !ok || n <= 0 {
			refused = "not a positive integer"
		}
	case TDecimal:
		if _, ok := parseFloat(val); !ok {
			refused = "not a valid decimal"
		}
	case TBoolean:
		if val != "true" && val != "false" && val != "0" && val != "1" {
			refused = "not a valid boolean"
		}
	case TDate:
		if !isDate(val) {
			refused = "not a valid date"
		}
	}
	if refused != "" {
		if v.reject() {
			v.failAttr(el, attr, "%s: %q", refused, val)
		}
		v.branch(pcFacet, false)
		return
	}
	v.branch(pcFacet, true)

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
		if !found && v.reject() {
			v.failAttr(el, attr, "value %q not in enumeration", val)
		}
	}
	if st.MinLength > 0 && len(val) < st.MinLength && v.reject() {
		v.failAttr(el, attr, "length %d below minLength %d", len(val), st.MinLength)
	}
	if st.MaxLength > 0 && len(val) > st.MaxLength && v.reject() {
		v.failAttr(el, attr, "length %d above maxLength %d", len(val), st.MaxLength)
	}
	if st.MinSet || st.MaxSet {
		if f, ok := parseFloat(val); ok {
			if st.MinSet && f < st.Min && v.reject() {
				v.failAttr(el, attr, "value %v below minInclusive %v", f, st.Min)
			}
			if st.MaxSet && f > st.Max && v.reject() {
				v.failAttr(el, attr, "value %v above maxInclusive %v", f, st.Max)
			}
		}
	}
}

// The strconv parsers build an error value for every refusal: an
// allocation per invalid message. parseInt and parseFloat give strconv's
// answer, but refuse a text holding a byte strconv could not accept there
// before strconv sees it.
const (
	intBytes      = "0123456789"
	decimalBytes  = "0123456789.eE_+-"
	hexFloatBytes = "0123456789abcdefABCDEF.pPxX_+-"
)

// parseInt is strconv.ParseInt(s, 10, 64) as a verdict.
func parseInt(s string) (int64, bool) {
	digits := s
	if s != "" && (s[0] == '+' || s[0] == '-') {
		digits = s[1:]
	}
	if digits == "" || strings.Trim(digits, intBytes) != "" {
		return 0, false
	}
	n, err := strconv.ParseInt(s, 10, 64)
	return n, err == nil
}

// parseFloat is strconv.ParseFloat(s, 64) as a verdict.
func parseFloat(s string) (float64, bool) {
	body := strings.TrimLeft(s, "+-")
	switch {
	case s == "":
		return 0, false
	case strings.EqualFold(body, "inf"), strings.EqualFold(body, "infinity"), strings.EqualFold(body, "nan"):
	case strings.HasPrefix(body, "0x"), strings.HasPrefix(body, "0X"):
		if strings.Trim(s, hexFloatBytes) != "" {
			return 0, false
		}
	default:
		if strings.Trim(s, decimalBytes) != "" {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}

// isToken reports whether trimmed text s is in token's lexical space: the
// only white space is single ' ' between words.
func isToken(s string) bool {
	afterSpace := false
	for _, r := range s {
		space := unicode.IsSpace(r)
		if space && (r != ' ' || afterSpace) {
			return false
		}
		afterSpace = space
	}
	return true
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
//
// Each emits only when the validator is metered.

func (v *Validator) alu(n int) {
	if v.metered {
		v.em.ALU(n)
	}
}

func (v *Validator) load(addr uint64, n int) {
	if v.metered {
		v.em.Load(addr, n)
	}
}

func (v *Validator) branch(pc uint64, taken bool) {
	if v.metered {
		v.em.Branch(pc, taken)
	}
}

func (v *Validator) emitNameLookup(name string, hit bool) {
	if !v.metered {
		return
	}
	v.em.ALU(6 + len(name))
	v.em.Branch(pcElemMatch, hit)
}

func (v *Validator) emitNameCompare(a, b string, match bool) {
	if !v.metered {
		return
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	v.em.ALU(2 + n/4)
	v.em.Branch(pcElemMatch, match)
}

func (v *Validator) emitCharScan(s string) {
	if !v.metered {
		return
	}
	words := (len(s) + trace.WordBytes - 1) / trace.WordBytes
	for w := 0; w < words; w++ {
		v.em.ALU(10) // lexical-space checks, whitespace facets
		if w%2 == 0 {
			v.em.Branch(pcCharScan, w+2 < words)
		}
	}
	v.em.ALU(len(s) % trace.WordBytes)
}
