package workload

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dpi"
	"repro/internal/httpmsg"
	"repro/internal/xmldom"
	"repro/internal/xpath"
	"repro/internal/xsd"
)

func TestSOAPMessageSizeAndDeterminism(t *testing.T) {
	for i := 0; i < 20; i++ {
		msg := SOAPMessage(i)
		if len(msg) < MessageBytes-300 || len(msg) > MessageBytes+100 {
			t.Fatalf("message %d size %d, want ~%d (AONBench 5KB)", i, len(msg), MessageBytes)
		}
		if !bytes.Equal(msg, SOAPMessage(i)) {
			t.Fatalf("message %d not deterministic", i)
		}
	}
	if bytes.Equal(SOAPMessage(1), SOAPMessage(2)) {
		t.Fatal("distinct messages identical")
	}
}

func TestSOAPMessageWellFormedAndValid(t *testing.T) {
	schema := OrderSchema()
	for i := 0; i < 20; i++ {
		doc, err := xmldom.Parse(SOAPMessage(i))
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if errs := xsd.Validate(schema, doc); len(errs) != 0 {
			t.Fatalf("message %d invalid: %v", i, errs[0])
		}
	}
}

func TestRoutingConditionDistribution(t *testing.T) {
	// Even-indexed messages match //quantity/text() = "1".
	expr := xpath.MustCompile(`//quantity/text()`)
	ev := xpath.NewEvaluator(nil)
	for i := 0; i < 10; i++ {
		doc, err := xmldom.Parse(SOAPMessage(i))
		if err != nil {
			t.Fatal(err)
		}
		val, err := ev.EvalString(expr, doc)
		if err != nil {
			t.Fatal(err)
		}
		want := i%2 == 0
		if (val == "1") != want {
			t.Fatalf("message %d routing value %q, want match=%v", i, val, want)
		}
	}
}

func TestInvalidSOAPMessageFailsValidation(t *testing.T) {
	schema := OrderSchema()
	doc, err := xmldom.Parse(InvalidSOAPMessage(3))
	if err != nil {
		t.Fatal(err)
	}
	if errs := xsd.Validate(schema, doc); len(errs) == 0 {
		t.Fatal("modified message passed validation")
	}
}

func TestHTTPRequestParses(t *testing.T) {
	for _, uc := range AllUseCases {
		raw := HTTPRequest(5, uc)
		var req httpmsg.Request
		if err := httpmsg.ParseRequestInto(raw, &req); err != nil {
			t.Fatalf("%v: %v", uc, err)
		}
		if req.Method != "POST" {
			t.Fatalf("%v method %s", uc, req.Method)
		}
		if req.ContentLength() != len(req.Body) {
			t.Fatalf("%v content length mismatch", uc)
		}
		if _, err := xmldom.Parse(req.Body); err != nil {
			t.Fatalf("%v body: %v", uc, err)
		}
	}
}

func TestUseCaseStrings(t *testing.T) {
	if FR.String() != "FR" || CBR.String() != "CBR" || SV.String() != "SV" {
		t.Fatal("use case names wrong")
	}
	if UseCase(9).String() != "invalid" {
		t.Fatal("invalid use case not flagged")
	}
	if len(AllUseCases) != 3 {
		t.Fatal("use case list wrong")
	}
}

// TestLookupUseCase holds the allocation-free lookup to the definition it
// replaced — EqualFold against each use case's String — and to zero
// allocations on hits and misses alike.
func TestLookupUseCase(t *testing.T) {
	six := append(append([]UseCase{}, AllUseCases...), ExtendedUseCases...)
	if len(six) != 6 {
		t.Fatalf("%d use cases, want 6", len(six))
	}
	for _, uc := range six {
		name := uc.String()
		for _, s := range []string{name, strings.ToLower(name), strings.ToLower(name[:1]) + name[1:]} {
			if got, ok := LookupUseCase(s); !ok || got != uc {
				t.Errorf("LookupUseCase(%q) = %v, %v; want %v", s, got, ok, uc)
			}
		}
	}
	for _, s := range []string{"", "F", "FRX", "service", "CBR ", "invalid"} {
		if got, ok := LookupUseCase(s); ok {
			t.Errorf("LookupUseCase(%q) = %v, want a miss", s, got)
		}
	}
	// The old definition, over the same names and their near misses.
	old := func(s string) (UseCase, bool) {
		for _, uc := range six {
			if strings.EqualFold(s, uc.String()) {
				return uc, true
			}
		}
		return FR, false
	}
	for _, uc := range six {
		for _, s := range []string{uc.String(), strings.ToLower(uc.String()), uc.String() + "x", uc.String()[1:]} {
			gu, gok := LookupUseCase(s)
			wu, wok := old(s)
			if gu != wu || gok != wok {
				t.Errorf("LookupUseCase(%q) = %v, %v; old definition %v, %v", s, gu, gok, wu, wok)
			}
		}
	}
	for _, s := range []string{"cbr", "XJ", "bogus", ""} {
		if n := testing.AllocsPerRun(100, func() { LookupUseCase(s) }); n != 0 {
			t.Errorf("LookupUseCase(%q): %v allocs/op, want 0", s, n)
		}
	}
	if uc, err := ParseUseCase("sv"); err != nil || uc != SV {
		t.Errorf("ParseUseCase(sv) = %v, %v", uc, err)
	}
	if _, err := ParseUseCase("bogus"); err == nil || err.Error() != `workload: unknown use case "bogus"` {
		t.Errorf("ParseUseCase(bogus) error %v", err)
	}
}

func TestSeededGenerators(t *testing.T) {
	// Seed 0 must reproduce the legacy stream byte for byte.
	for i := 0; i < 8; i++ {
		if !bytes.Equal(SOAPMessageSeeded(i, MessageBytes, 0), SOAPMessage(i)) {
			t.Fatalf("message %d: seed 0 diverges from legacy stream", i)
		}
		if !bytes.Equal(HTTPRequestSeeded(i, CBR, MessageBytes, 0), HTTPRequest(i, CBR)) {
			t.Fatalf("request %d: seed 0 diverges from legacy stream", i)
		}
	}
	// Distinct seeds give distinct but internally deterministic streams.
	a := SOAPMessageSeeded(3, MessageBytes, 42)
	if bytes.Equal(a, SOAPMessage(3)) {
		t.Fatal("seed 42 identical to seed 0")
	}
	if !bytes.Equal(a, SOAPMessageSeeded(3, MessageBytes, 42)) {
		t.Fatal("seeded message not deterministic")
	}
	// Seeded messages stay well-formed and schema-valid.
	doc, err := xmldom.Parse(a)
	if err != nil {
		t.Fatalf("seeded message: %v", err)
	}
	if errs := xsd.Validate(OrderSchema(), doc); len(errs) != 0 {
		t.Fatalf("seeded message invalid: %v", errs[0])
	}
}

func TestDirtySignature(t *testing.T) {
	sigs := []string{"alpha", "beta"}
	dirty := 0
	for i := 0; i < 4*DirtyEvery; i++ {
		sig := dirtySignature(i, sigs)
		if want := i%DirtyEvery == DirtyEvery-1; (sig != "") != want {
			t.Fatalf("message %d: dirty=%v want %v", i, sig != "", want)
		}
		if sig != "" {
			dirty++
		}
	}
	if dirty != 4 {
		t.Fatalf("dirty count %d, want 4", dirty)
	}
	// Signatures cycle through the set.
	if dirtySignature(DirtyEvery-1, sigs) != "alpha" || dirtySignature(2*DirtyEvery-1, sigs) != "beta" {
		t.Fatal("signatures do not cycle in order")
	}
	if dirtySignature(DirtyEvery-1, nil) != "" {
		t.Fatal("empty signature set must yield clean messages")
	}
}

func TestDPIDirtyRequestEmbedsSignature(t *testing.T) {
	// Every DirtyEvery-th DPI request carries a default signature;
	// clean ones carry none.
	dirtyIdx := DirtyEvery - 1
	raw := HTTPRequest(dirtyIdx, DPI)
	var req, clean httpmsg.Request
	if err := httpmsg.ParseRequestInto(raw, &req); err != nil {
		t.Fatal(err)
	}
	sig := dirtySignature(dirtyIdx, dpi.DefaultSignatures)
	if sig == "" || !bytes.Contains(req.Body, []byte(sig)) {
		t.Fatalf("dirty DPI request missing signature %q", sig)
	}
	if req.ContentLength() != len(req.Body) {
		t.Fatal("dirty DPI request content length mismatch")
	}
	if err := httpmsg.ParseRequestInto(HTTPRequest(0, DPI), &clean); err != nil {
		t.Fatal(err)
	}
	for _, s := range dpi.DefaultSignatures {
		if bytes.Contains(clean.Body, []byte(s)) {
			t.Fatalf("clean DPI request contains signature %q", s)
		}
	}
}

func TestNetperfBuffer(t *testing.T) {
	b := netperfBuffer(16 << 10)
	if len(b) != 16<<10 {
		t.Fatalf("buffer size %d", len(b))
	}
}
