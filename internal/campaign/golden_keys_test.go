package campaign

import (
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/session"
)

// fill sets every settable field of v to a non-zero value, so omitempty
// keys appear when the value is marshalled.
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				fill(v.Field(i))
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fill(v.Index(0))
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		key, elem := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fill(key)
		fill(elem)
		v.SetMapIndex(key, elem)
	case reflect.String:
		v.SetString("k")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1)
	}
}

// keyPaths flattens decoded JSON into sorted dotted key paths.
func keyPaths(prefix string, v any, out map[string]bool) {
	switch t := v.(type) {
	case map[string]any:
		for k, e := range t {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			keyPaths(p, e, out)
		}
	case []any:
		for _, e := range t {
			keyPaths(prefix, e, out)
		}
	}
}

func jsonKeys(t *testing.T, ptr any) string {
	t.Helper()
	fill(reflect.ValueOf(ptr).Elem())
	b, err := json.Marshal(ptr)
	if err != nil {
		t.Fatal(err)
	}
	var decoded any
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	keyPaths("", decoded, set)
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// TestReportKeySetsGolden pins the JSON key sets of the report shapes
// the campaign tests and offline tooling read, and of the session sample
// every timeline artifact carries, and of the recorder's session.jsonl
// sample row around it. The report goldens were recorded on
// the commit before Counts was factored out of PhaseReport; embedding
// must keep the shape flat and key-for-key identical. The
// sample's was recorded before the gateway's own sampling session was
// deleted: the cumulative counts the Windower differences stay out of
// JSON.
func TestReportKeySetsGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		ptr  any
		want string
	}{
		{"campaign.PhaseReport", &PhaseReport{}, goldenPhaseReportKeys},
		{"campaign.Result", &Result{}, goldenResultKeys},
		{"session.Sample", &session.Sample{}, goldenSampleKeys},
		{"campaign.Row", &Row{}, goldenRowKeys},
	} {
		if got := jsonKeys(t, tc.ptr); got != tc.want {
			t.Errorf("%s key set changed:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// Recorded on the parent commit (1db7a2d) with the helpers above; the
// model.* keys left with the capacity model.
const goldenPhaseReportKeys = "duration_sec fault_steps forwarded gw_idle_timeouts gw_messages gw_shed gw_upstream_errors http_errors latency_p50_us latency_p99_us loris_completed loris_held loris_reaped name net_errors offered_per_sec ok_200 ok_per_sec parse_errors peak_conns routed_error routed_match sent shape shed_503 stages stages.k stages.k.count stages.k.mean_us translated usecase validation_ok"
const goldenResultKeys = "addr artifacts duration_sec faults faults.at_ms faults.backend faults.err faults.fault faults.fault.clear faults.fault.down_ms faults.fault.error_rate faults.fault.extra_delay_ms faults.fault.fail_next faults.phase faults.state faults.state.active faults.state.down_remaining_ms faults.state.dropped faults.state.error_rate faults.state.errored faults.state.extra_delay_ms faults.state.fail_next name phases phases.duration_sec phases.fault_steps phases.forwarded phases.gw_idle_timeouts phases.gw_messages phases.gw_shed phases.gw_upstream_errors phases.http_errors phases.latency_p50_us phases.latency_p99_us phases.loris_completed phases.loris_held phases.loris_reaped phases.name phases.net_errors phases.offered_per_sec phases.ok_200 phases.ok_per_sec phases.parse_errors phases.peak_conns phases.routed_error phases.routed_match phases.sent phases.shape phases.shed_503 phases.stages phases.stages.k phases.stages.k.count phases.stages.k.mean_us phases.translated phases.usecase phases.validation_ok samples seed"

// Recorded on the parent commit (77f70c7) with the helpers above.
const goldenSampleKeys = "br_mpr_pct bytes_in cache_mpi_pct cpi cpus cpus.br_mpr_pct cpus.cache_mpi_pct cpus.cpi cpus.cpu cpus.derived_source derived_source gc_cpu_pct gomaxprocs goroutines latency_p50_us latency_p99_us messages msgs_per_sec sched_lat_p99_us shed t_ms upstream_idle_conns window_sec"

// The recorder's sample row: the campaign's phase tag, the fleet's node,
// role and skew-aligned rel_ms, and the sample above.
const goldenRowKeys = "node phase rel_ms role sample sample.br_mpr_pct sample.bytes_in sample.cache_mpi_pct sample.cpi sample.cpus sample.cpus.br_mpr_pct sample.cpus.cache_mpi_pct sample.cpus.cpi sample.cpus.cpu sample.cpus.derived_source sample.derived_source sample.gc_cpu_pct sample.gomaxprocs sample.goroutines sample.latency_p50_us sample.latency_p99_us sample.messages sample.msgs_per_sec sample.sched_lat_p99_us sample.shed sample.t_ms sample.upstream_idle_conns sample.window_sec t_ms type"
