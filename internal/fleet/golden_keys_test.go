package fleet

import (
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/gateway"
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

// TestReportKeySetsGolden pins the JSON key sets of the four report
// shapes the CI smokes and offline tooling read. The goldens were
// recorded on the commit before Counts was factored out of Report and
// PhaseReport; embedding must keep both shapes flat and key-for-key
// identical.
func TestReportKeySetsGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		ptr  any
		want string
	}{
		{"gateway.Report", &gateway.Report{}, goldenReportKeys},
		{"campaign.PhaseReport", &campaign.PhaseReport{}, goldenPhaseReportKeys},
		{"fleet.pointReport", &pointReport{}, goldenPointReportKeys},
		{"campaign.Result", &campaign.Result{}, goldenResultKeys},
	} {
		if got := jsonKeys(t, tc.ptr); got != tc.want {
			t.Errorf("%s key set changed:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// Recorded on the parent commit (1db7a2d) with the helpers above;
// goldenPointReportKeys has since lost capacity.counters.width_changes,
// with the pool width the controller no longer decides.
const goldenReportKeys = "bytes_in bytes_out client_spans client_spans.dur_us client_spans.name client_spans.node client_spans.outcome client_spans.parent_id client_spans.span_id client_spans.start_us client_spans.status client_spans.trace_id client_spans.usecase conns duration_sec forwarded http_errors latency latency.count latency.max_us latency.mean_us latency.p50_us latency.p90_us latency.p99_us mbps msgs_per_sec net_errors ok_200 parse_errors routed_error routed_match sent shed_503 size_bytes translated usecase validation_ok"
const goldenPhaseReportKeys = "duration_sec fault_steps forwarded gw_idle_timeouts gw_messages gw_shed gw_upstream_errors http_errors latency_p50_us latency_p99_us loris_completed loris_held loris_reaped model model.admissible_per_sec model.demand_us model.p99_err_pct model.predicted_p99_us model.predicted_per_sec model.throughput_err_pct model.workers name net_errors offered_per_sec ok_200 ok_per_sec parse_errors peak_conns routed_error routed_match sent shape shed_503 stages stages.k stages.k.count stages.k.mean_us translated usecase validation_ok"
const goldenPointReportKeys = "capacity capacity.adapt_interval_ms capacity.admissible_per_sec capacity.admission_bound capacity.counters capacity.counters.bound_changes capacity.counters.decisions capacity.counters.fallbacks capacity.counters.holds capacity.enabled capacity.fallback capacity.initial_bound capacity.observed capacity.observed.forward_us capacity.observed.goodput_per_sec capacity.observed.offered_per_sec capacity.observed.p99_us capacity.observed.parse_us capacity.observed.process_us capacity.observed.read_us capacity.observed.window_sec capacity.observed.write_us capacity.p99_err_pct capacity.per_usecase capacity.per_usecase.k capacity.per_usecase.k.err_pct capacity.per_usecase.k.offered_per_sec capacity.per_usecase.k.predicted_per_sec capacity.predicted capacity.predicted.bottleneck capacity.predicted.in_system capacity.predicted.mean_us capacity.predicted.offered_per_sec capacity.predicted.p50_us capacity.predicted.p99_us capacity.predicted.saturated capacity.predicted.stations capacity.predicted.stations.demand_us capacity.predicted.stations.kind capacity.predicted.stations.name capacity.predicted.stations.queue_len capacity.predicted.stations.residence_us capacity.predicted.stations.saturated capacity.predicted.stations.servers capacity.predicted.stations.utilization capacity.predicted.stations.wait_us capacity.predicted.throughput_per_sec capacity.reason capacity.target_p99_us capacity.throughput_err_pct capacity.workers client client.bytes_in client.bytes_out client.client_spans client.client_spans.dur_us client.client_spans.name client.client_spans.node client.client_spans.outcome client.client_spans.parent_id client.client_spans.span_id client.client_spans.start_us client.client_spans.status client.client_spans.trace_id client.client_spans.usecase client.conns client.duration_sec client.forwarded client.http_errors client.latency client.latency.count client.latency.max_us client.latency.mean_us client.latency.p50_us client.latency.p90_us client.latency.p99_us client.mbps client.msgs_per_sec client.net_errors client.ok_200 client.parse_errors client.routed_error client.routed_match client.sent client.shed_503 client.size_bytes client.translated client.usecase client.validation_ok conns fleet_msgs_per_sec nodes nodes.cache_mpi_pct nodes.cpi nodes.derived_source nodes.latency_p50_us nodes.latency_p99_us nodes.messages nodes.msgs_per_sec nodes.node nodes.role nodes.samples"
const goldenResultKeys = "addr artifacts duration_sec faults faults.at_ms faults.backend faults.err faults.fault faults.fault.clear faults.fault.down_ms faults.fault.error_rate faults.fault.extra_delay_ms faults.fault.fail_next faults.phase faults.state faults.state.active faults.state.down_remaining_ms faults.state.dropped faults.state.error_rate faults.state.errored faults.state.extra_delay_ms faults.state.fail_next name phases phases.duration_sec phases.fault_steps phases.forwarded phases.gw_idle_timeouts phases.gw_messages phases.gw_shed phases.gw_upstream_errors phases.http_errors phases.latency_p50_us phases.latency_p99_us phases.loris_completed phases.loris_held phases.loris_reaped phases.model phases.model.admissible_per_sec phases.model.demand_us phases.model.p99_err_pct phases.model.predicted_p99_us phases.model.predicted_per_sec phases.model.throughput_err_pct phases.model.workers phases.name phases.net_errors phases.offered_per_sec phases.ok_200 phases.ok_per_sec phases.parse_errors phases.peak_conns phases.routed_error phases.routed_match phases.sent phases.shape phases.shed_503 phases.stages phases.stages.k phases.stages.k.count phases.stages.k.mean_us phases.translated phases.usecase phases.validation_ok samples seed"
