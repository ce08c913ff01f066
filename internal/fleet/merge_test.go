package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/session"
)

func sample(tms int64, msgs uint64) session.Sample {
	return session.Sample{
		TMS:        tms,
		WindowSec:  0.1,
		Messages:   msgs,
		MsgsPerSec: float64(msgs) / 0.1,
	}
}

// Two nodes whose wall clocks disagree by hours must still land on one
// aligned axis: each node's RelMS counts from its own first sample.
func TestMergerSkewedClocks(t *testing.T) {
	m := NewMerger(nil)
	// Gateway clock: ~epoch 1_000_000. Backend clock: three hours ahead.
	const gwEpoch, beEpoch = int64(1_000_000), int64(1_000_000 + 3*3600*1000)
	for i := int64(0); i < 5; i++ {
		m.Add("gateway/gw0", RoleGateway, sample(gwEpoch+i*100, 10))
		m.Add("backend/b0", RoleBackend, sample(beEpoch+i*100, 10))
	}
	merged := m.Merged()
	if len(merged) != 10 {
		t.Fatalf("merged %d samples, want 10", len(merged))
	}
	// Aligned: samples interleave by RelMS, not cluster by absolute clock.
	for i, ns := range merged {
		wantRel := int64(i/2) * 100
		if ns.RelMS != wantRel {
			t.Fatalf("sample %d: rel_ms %d, want %d (skew leaked into alignment)", i, ns.RelMS, wantRel)
		}
	}
	if e, _ := m.Epoch("gateway/gw0"); e != gwEpoch {
		t.Errorf("gateway epoch %d, want %d", e, gwEpoch)
	}
	if e, _ := m.Epoch("backend/b0"); e != beEpoch {
		t.Errorf("backend epoch %d, want %d", e, beEpoch)
	}
}

// A node that joins mid-session starts its own RelMS axis at zero; a
// node that leaves early simply stops contributing — neither distorts
// the other's timeline.
func TestMergerLateJoinEarlyLeave(t *testing.T) {
	m := NewMerger(nil)
	for i := int64(0); i < 10; i++ {
		m.Add("backend/early", RoleBackend, sample(5000+i*100, 1))
	}
	// Late joiner: first sample long after the early node started.
	for i := int64(0); i < 3; i++ {
		m.Add("backend/late", RoleBackend, sample(90_000+i*100, 1))
	}
	per := m.PerNode()
	if n := len(per["backend/early"]); n != 10 {
		t.Fatalf("early node kept %d samples, want 10", n)
	}
	if n := len(per["backend/late"]); n != 3 {
		t.Fatalf("late node kept %d samples, want 3", n)
	}
	if e, ok := m.Epoch("backend/late"); !ok || e != 90_000 {
		t.Fatalf("late epoch %d (ok=%v), want 90000", e, ok)
	}
	// The late joiner's first sample sits at RelMS 0 like everyone else's.
	for _, ns := range m.Merged() {
		if ns.Node == "backend/late" && ns.TMS == 90_000 && ns.RelMS != 0 {
			t.Fatalf("late joiner first sample rel_ms %d, want 0", ns.RelMS)
		}
	}
	if got := m.Nodes(); !reflect.DeepEqual(got, []string{"backend/early", "backend/late"}) {
		t.Fatalf("nodes %v", got)
	}
}

// Re-scraping a gateway's timeline ring re-reads old samples; the
// merger must accept each (node, TMS) once and call the sink once.
func TestMergerDuplicateSuppression(t *testing.T) {
	var sunk []NodeSample
	m := NewMerger(func(ns NodeSample) error {
		sunk = append(sunk, ns)
		return nil
	})
	s := sample(1000, 7)
	if !m.Add("gateway/gw0", RoleGateway, s) {
		t.Fatal("first add rejected")
	}
	for i := 0; i < 3; i++ {
		if m.Add("gateway/gw0", RoleGateway, s) {
			t.Fatal("duplicate (node, TMS) accepted")
		}
	}
	// Same TMS from a different node is a distinct sample.
	if !m.Add("gateway/gw1", RoleGateway, s) {
		t.Fatal("same TMS on another node rejected")
	}
	if m.Len() != 2 || len(sunk) != 2 {
		t.Fatalf("len %d, sink calls %d, want 2 and 2", m.Len(), len(sunk))
	}
}

// The merged session must survive a disk round trip bit-for-bit, and
// the writer must be safe as a sink under concurrent scraping (-race
// covers the interleaving).
func TestJSONLRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := session.CreateJSONL(filepath.Join(dir, JSONLName))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMerger(func(ns NodeSample) error { return w.Write(ns) })

	const nodes, perNode = 4, 25
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			key := fmt.Sprintf("backend/b%d", n)
			for i := int64(0); i < perNode; i++ {
				s := sample(int64(n)*1_000_000+i*100, uint64(n*100+int(i)))
				m.Add(key, RoleBackend, s)
				m.Add(key, RoleBackend, s) // concurrent duplicate, must be dropped
			}
		}(n)
	}
	wg.Wait()
	if err := m.SinkErr(); err != nil {
		t.Fatalf("sink: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := ReadJSONL(filepath.Join(dir, JSONLName))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != nodes*perNode {
		t.Fatalf("read %d samples back, want %d", len(back), nodes*perNode)
	}
	// The file holds arrival order; compare as sets keyed by (node, TMS)
	// and require full struct equality per sample.
	want := map[string]NodeSample{}
	for _, ns := range m.Merged() {
		want[ns.Node+"@"+fmt.Sprint(ns.TMS)] = ns
	}
	for _, ns := range back {
		ref, ok := want[ns.Node+"@"+fmt.Sprint(ns.TMS)]
		if !ok {
			t.Fatalf("read back unknown sample %s@%d", ns.Node, ns.TMS)
		}
		if !reflect.DeepEqual(ns, ref) {
			t.Fatalf("round trip mutated sample %s@%d:\n got %+v\nwant %+v", ns.Node, ns.TMS, ns, ref)
		}
	}
}

// The merged CSV prefixes node/role/rel_ms columns but stays readable
// by the stock session.ReadCSV parser (header-name column resolution).
func TestMergedCSVReadableBySessionReader(t *testing.T) {
	dir := t.TempDir()
	m := NewMerger(nil)
	for i := int64(0); i < 6; i++ {
		m.Add("gateway/gw0", RoleGateway, sample(1000+i*100, 5))
		m.Add("backend/b0", RoleBackend, sample(8_000_000+i*100, 5))
	}
	if err := WriteCSVs(dir, m); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, MergedCSVName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := session.ReadCSV(f)
	if err != nil {
		t.Fatalf("session.ReadCSV on merged CSV: %v", err)
	}
	if len(rows) != 12 {
		t.Fatalf("parsed %d rows, want 12", len(rows))
	}
	var msgs uint64
	for _, r := range rows {
		msgs += r.Messages
	}
	if msgs != 60 {
		t.Fatalf("messages sum %d, want 60", msgs)
	}
}
