package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/session"
)

// Artifact names inside Config.OutDir. The merged session is persisted
// as it is collected — one NodeSample per line of JSONLName, through
// session.JSONL — so a crashed campaign still leaves the session on disk
// up to its last scrape.
const (
	JSONLName     = "merged-session.jsonl"
	MergedCSVName = "merged-session.csv"
	ReportName    = "fleet-report.txt"
)

// ReadJSONL loads a persisted merged session back — the round-trip half
// of the format, used by tests and by offline report tooling.
func ReadJSONL(path string) ([]NodeSample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: session jsonl: %w", err)
	}
	defer f.Close()
	var out []NodeSample
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ns NodeSample
		if err := json.Unmarshal(sc.Bytes(), &ns); err != nil {
			return nil, fmt.Errorf("fleet: session jsonl line %d: %w", line, err)
		}
		out = append(out, ns)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fleet: session jsonl: %w", err)
	}
	return out, nil
}

// WriteCSVs renders the merged session to CSV: one session-<role>-<id>.csv
// per node in the plain session schema (readable by session.ReadCSV and
// every existing tool), plus merged-session.csv with node, role, and
// aligned rel_ms columns prefixed — session.ReadCSV resolves columns by
// header name, so the merged file stays readable by the same parser.
func WriteCSVs(outDir string, m *Merger) error {
	for node, samples := range m.PerNode() {
		err := writeFile(filepath.Join(outDir, "session-"+sanitize(node)+".csv"), func(f *os.File) error {
			return session.WriteCSV(f, samples)
		})
		if err != nil {
			return err
		}
	}
	return writeFile(filepath.Join(outDir, MergedCSVName), func(f *os.File) error {
		app := session.NewAppender(f, true, "node", "role", "rel_ms")
		if err := app.Append(nil); err != nil { // the header, even for an empty session
			return err
		}
		for _, ns := range m.Merged() {
			if err := app.AppendRow(ns.Sample, ns.Node, ns.Role, strconv.FormatInt(ns.RelMS, 10)); err != nil {
				return err
			}
		}
		return nil
	})
}

// writeFile creates path, lets write fill it, and closes it.
func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("fleet: %s: %w", path, err)
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("fleet: %s: %w", path, err)
	}
	return nil
}
