package xpath

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/xmldom"
)

func fmtSprintf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// Value is an XPath 1.0 value: node-set, string, number or boolean.
type Value struct {
	Nodes  []*xmldom.Node
	Str    string
	Num    float64
	Bool   bool
	kindOf valueKind
}

type valueKind int

const (
	kindNodeSet valueKind = iota
	kindString
	kindNumber
	kindBool
)

// nodeSetValue wraps a node-set.
func nodeSetValue(ns []*xmldom.Node) Value { return Value{Nodes: ns, kindOf: kindNodeSet} }

// stringValue wraps a string.
func stringValue(s string) Value { return Value{Str: s, kindOf: kindString} }

// numberValue wraps a number.
func numberValue(f float64) Value { return Value{Num: f, kindOf: kindNumber} }

// boolValue wraps a boolean.
func boolValue(b bool) Value { return Value{Bool: b, kindOf: kindBool} }

// IsNodeSet reports whether the value is a node-set.
func (v Value) IsNodeSet() bool { return v.kindOf == kindNodeSet }

// String converts per the XPath string() rules.
func (v Value) String() string {
	switch v.kindOf {
	case kindNodeSet:
		if len(v.Nodes) == 0 {
			return ""
		}
		return nodeStringValue(v.Nodes[0])
	case kindString:
		return v.Str
	case kindNumber:
		return formatNumber(v.Num)
	default:
		if v.Bool {
			return "true"
		}
		return "false"
	}
}

// Number converts per the XPath number() rules.
func (v Value) Number() float64 {
	switch v.kindOf {
	case kindNumber:
		return v.Num
	case kindBool:
		if v.Bool {
			return 1
		}
		return 0
	default:
		s := strings.TrimSpace(v.String())
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return math.NaN()
		}
		return f
	}
}

// Boolean converts per the XPath boolean() rules.
func (v Value) Boolean() bool {
	switch v.kindOf {
	case kindNodeSet:
		return len(v.Nodes) > 0
	case kindString:
		return len(v.Str) > 0
	case kindNumber:
		return v.Num != 0 && !math.IsNaN(v.Num)
	default:
		return v.Bool
	}
}

// nodeStringValue is the XPath string-value of a node.
func nodeStringValue(n *xmldom.Node) string {
	switch n.Kind {
	case xmldom.Text, xmldom.Comment, xmldom.ProcInst:
		return n.Data
	default:
		return n.TextContent()
	}
}

// formatNumber renders a float the XPath way: integers without a point.
func formatNumber(f float64) string {
	if math.IsNaN(f) {
		return "NaN"
	}
	if math.IsInf(f, 1) {
		return "Infinity"
	}
	if math.IsInf(f, -1) {
		return "-Infinity"
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// compare applies an XPath comparison between two values, handling the
// node-set existential semantics.
func compare(op tokKind, a, b Value) bool {
	// Node-set vs anything: existential over string-values.
	if a.IsNodeSet() && b.IsNodeSet() {
		for _, na := range a.Nodes {
			for _, nb := range b.Nodes {
				if cmpAtom(op, stringValue(nodeStringValue(na)), stringValue(nodeStringValue(nb))) {
					return true
				}
			}
		}
		return false
	}
	if a.IsNodeSet() {
		for _, na := range a.Nodes {
			if cmpAtom(op, stringValue(nodeStringValue(na)), b) {
				return true
			}
		}
		return false
	}
	if b.IsNodeSet() {
		for _, nb := range b.Nodes {
			if cmpAtom(op, a, stringValue(nodeStringValue(nb))) {
				return true
			}
		}
		return false
	}
	return cmpAtom(op, a, b)
}

func cmpAtom(op tokKind, a, b Value) bool {
	switch op {
	case tokEq, tokNeq:
		var eq bool
		switch {
		case a.kindOf == kindBool || b.kindOf == kindBool:
			eq = a.Boolean() == b.Boolean()
		case a.kindOf == kindNumber || b.kindOf == kindNumber:
			eq = a.Number() == b.Number()
		default:
			eq = a.String() == b.String()
		}
		if op == tokNeq {
			return !eq
		}
		return eq
	case tokLt:
		return a.Number() < b.Number()
	case tokLte:
		return a.Number() <= b.Number()
	case tokGt:
		return a.Number() > b.Number()
	case tokGte:
		return a.Number() >= b.Number()
	}
	return false
}
