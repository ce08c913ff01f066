package xpath

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xmldom"
)

// Additional coverage: operator precedence, conversions, unions, deep
// documents and adversarial inputs.

func TestOperatorPrecedence(t *testing.T) {
	d := doc(t)
	cases := []struct {
		expr, want string
	}{
		{`string(2 + 3 * 4)`, "14"},
		{`string((2 + 3) * 4)`, "20"},
		{`string(2 - 3 - 4)`, "-5"},
		{`string(12 div 2 div 3)`, "2"},
		{`string(1 < 2)`, "true"},
		{`string(2 <= 2 and 3 > 1)`, "true"},
		{`string(1 = 1 or unknown-fn())`, "true"}, // short-circuit skips the error
		{`string(-2 * -3)`, "6"},
	}
	for _, c := range cases {
		if got := evalStr(t, d, c.expr); got != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got, c.want)
		}
	}
}

func TestExistentialComparison(t *testing.T) {
	d := doc(t)
	// Node-set = value is existential: true if ANY node matches.
	for expr, want := range map[string]bool{
		`//quantity = 1`:                    true,  // one of them is 1
		`//quantity = 3`:                    true,  // another is 3
		`//quantity = 99`:                   false, // none
		`//quantity != 1`:                   true,  // some are not 1
		`//quantity > 2`:                    true,
		`//item/@sku = "B2"`:                true,
		`//quantity = //price`:              false,
		`count(//item) = count(//quantity)`: true,
	} {
		ok, err := NewEvaluator(nil).EvalBool(MustCompile(expr), d)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		if ok != want {
			t.Errorf("%s = %v, want %v", expr, ok, want)
		}
	}
}

func TestFilterExpression(t *testing.T) {
	d := doc(t)
	if got := evalStr(t, d, `(//item)[2]/@sku`); got != "B2" {
		t.Fatalf("(//item)[2] = %q", got)
	}
	if got := evalStr(t, d, `string((//quantity)[last()])`); got != "1" {
		t.Fatalf("last quantity = %q", got)
	}
}

func TestBareRoot(t *testing.T) {
	d := doc(t)
	ns := evalNodes(t, d, `/`)
	if len(ns) != 1 || ns[0].Kind != xmldom.Document {
		t.Fatalf("bare / = %+v", ns)
	}
}

func TestTextNodeTest(t *testing.T) {
	d := doc(t)
	ns := evalNodes(t, d, `//note/text()`)
	if len(ns) != 1 || ns[0].Data != "rush order" {
		t.Fatalf("text() = %+v", ns)
	}
	// node() matches everything below items.
	all := evalNodes(t, d, `//item/node()`)
	if len(all) < 6 {
		t.Fatalf("node() = %d nodes", len(all))
	}
}

func TestDeepDocument(t *testing.T) {
	var b strings.Builder
	depth := 60
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, "<d%d>", i)
	}
	b.WriteString("<leaf>found</leaf>")
	for i := depth - 1; i >= 0; i-- {
		fmt.Fprintf(&b, "</d%d>", i)
	}
	d, err := xmldom.Parse([]byte(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := evalStr(t, d, `//leaf`); got != "found" {
		t.Fatalf("deep descendant = %q", got)
	}
}

// Property: count(//x) equals the number of <x> elements actually written.
func TestCountMatchesConstruction(t *testing.T) {
	check := func(n uint8) bool {
		k := int(n % 50)
		var b strings.Builder
		b.WriteString("<r>")
		for i := 0; i < k; i++ {
			b.WriteString("<x/>")
		}
		b.WriteString("<y/></r>")
		d, err := xmldom.Parse([]byte(b.String()))
		if err != nil {
			return false
		}
		v, err := NewEvaluator(nil).Eval(MustCompile(`count(//x)`), d)
		if err != nil {
			return false
		}
		return int(v.Number()) == k
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: //name finds an element if and only if its serialized form
// contains the tag.
func TestDescendantFindsAll(t *testing.T) {
	names := []string{"alpha", "beta", "gamma"}
	check := func(mask uint8) bool {
		var b strings.Builder
		b.WriteString("<root>")
		for i, n := range names {
			if mask&(1<<i) != 0 {
				fmt.Fprintf(&b, "<%s/>", n)
			}
		}
		b.WriteString("</root>")
		d, err := xmldom.Parse([]byte(b.String()))
		if err != nil {
			return false
		}
		for i, n := range names {
			v, err := NewEvaluator(nil).Eval(MustCompile("//"+n), d)
			if err != nil {
				return false
			}
			want := mask&(1<<i) != 0
			if (len(v.Nodes) > 0) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 64}); err != nil {
		t.Fatal(err)
	}
}

func TestSyntaxErrorReporting(t *testing.T) {
	_, err := Compile(`//a[`)
	se, ok := err.(*syntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Expr != `//a[` || !strings.Contains(se.Error(), "xpath") {
		t.Fatalf("error = %v", se)
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile accepted garbage")
		}
	}()
	MustCompile(`]]]`)
}
