package repro

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// simulatorOnly reports whether a module package belongs to the modelled
// machine: the harness, the simulated server and network stack, the
// scheduler and every perf/ model package. The
// one perf/ package the live path may use is perf/trace, the micro-op
// sink interface the tree builder's meter writes to.
func simulatorOnly(pkg string) bool {
	rel := strings.TrimPrefix(pkg, "repro/internal/")
	if rel == pkg {
		return false
	}
	switch rel {
	case "harness", "core", "netsim", "netperf":
		return true
	}
	if strings.HasPrefix(rel, "sim/") {
		return true
	}
	return strings.HasPrefix(rel, "perf/") && rel != "perf/trace"
}

// TestGatewayImportsNoSimulator walks the import blocks of the live
// gateway's non-test files, and of every module package they reach, and
// fails if the walk reaches a simulator package: the gateway must never
// link, let alone run, the modelled machine.
func TestGatewayImportsNoSimulator(t *testing.T) {
	const module = "repro"
	fset := token.NewFileSet()
	from := map[string]string{module + "/internal/gateway": ""} // package -> the package that first imported it
	queue := []string{module + "/internal/gateway"}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		dir := filepath.FromSlash(strings.TrimPrefix(pkg, module+"/"))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range f.Imports {
				imp, _ := strconv.Unquote(spec.Path.Value)
				if !strings.HasPrefix(imp, module+"/") {
					continue
				}
				if _, ok := from[imp]; ok {
					continue
				}
				from[imp] = pkg
				if simulatorOnly(imp) {
					chain := imp
					for p := pkg; p != ""; p = from[p] {
						chain = p + " -> " + chain
					}
					t.Errorf("the gateway reaches a simulator package: %s", chain)
					continue
				}
				queue = append(queue, imp)
			}
		}
	}
}
