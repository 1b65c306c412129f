package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// testSeconds makes each slice 50 ms: long enough for every flow to move
// traffic and every gate to mean something, short enough for go test ./... .
const testSeconds = 0.5

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool { return strings.Join(a, " ") == strings.Join(b, " ") }

// TestWorkloads runs every workload's untraced pass end to end: real
// sockets, timed set-ups, the slices, teardown and the correctness gates.
func TestWorkloads(t *testing.T) {
	for i := range workloads {
		spec := &workloads[i]
		t.Run(spec.name, func(t *testing.T) {
			var log bytes.Buffer
			res, err := runUntraced(runConfig{spec: spec, seed: 7, seconds: testSeconds, log: &log, short: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
			}
			if got, want := keys(res.Metrics), names(endToEndMetrics); !equal(got, want) {
				t.Errorf("end-to-end metrics emitted:\n got %v\nwant %v", got, want)
			}
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

// TestTracedPass runs the traced pass on the workload that uses every layer
// and checks that it reports the whole per-layer catalogue and that in the
// span file every message's layer spans lie end to end inside its one-way
// span, without overlap.
func TestTracedPass(t *testing.T) {
	var log bytes.Buffer
	dir := t.TempDir()
	res, err := runTraced(runConfig{spec: workloadByName("mix_ctrl_bulk_data"), seed: 7, seconds: 2 * testSeconds, outDir: dir, log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("incorrect run:\n%s", log.String())
	}
	if got, want := keys(res.Metrics), names(perLayerMetrics); !equal(got, want) {
		t.Errorf("per-layer metrics emitted:\n got %v\nwant %v", got, want)
	}
	if share := res.Metrics["data.udt_share"].Value; share < 0.3 || share > 0.7 {
		t.Errorf("data.udt_share = %.2f, want about half under the static 1:1 ratio", share)
	}
	data, err := os.ReadFile(dir + "/trace_mix_ctrl_bulk_data.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []traceSpan }
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.Spans) == 0 {
		t.Fatalf("span file: %d spans, err %v", len(doc.Spans), err)
	}
	// Spans are written message by message, root first, layers in path order.
	var root traceSpan
	var at int64 // where the layers seen so far end
	for _, s := range doc.Spans {
		switch {
		case s.Parent == "":
			root, at = s, s.Start
		case s.Msg != root.Msg || s.Start < at || s.End < s.Start || s.End > root.End:
			t.Errorf("%s %s [%d, %d] does not follow %d inside its one-way span [%d, %d]",
				s.Msg, s.Name, s.Start, s.End, at, root.Start, root.End)
		default:
			at = s.End
		}
	}
}

// TestFinalLine drives the command's own entry point and parses what the
// harness parses: the last line of standard output.
func TestFinalLine(t *testing.T) {
	var out bytes.Buffer
	code, err := run("ctrl_rtt_tcp", 7, testSeconds, 0, false, &out)
	if err != nil || code != 0 {
		t.Fatalf("exit %d, err %v\n%s", code, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	var got []string
	for k := range res {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !equal(got, want) {
		t.Errorf("final object has keys %v, want %v", got, want)
	}
	if !strings.Contains(lines[0], "loopback") {
		t.Errorf("environment stamp does not say the link is loopback: %s", lines[0])
	}
}

// TestBenchmarkJSON holds the names this program emits against the contract
// file at the repository root, in both directions.
func TestBenchmarkJSON(t *testing.T) {
	f, err := os.Open("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var contract struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&contract); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Token(); err != io.EOF {
		t.Error("trailing data after the contract object")
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the contract, %d in the program", len(contract.Workloads), len(workloads))
	}
	for i, w := range contract.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: contract has %q (%q), program has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	compare := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the contract, %d in the program", kind, len(got), len(want))
		}
		for i, e := range got {
			checkName(e.Name)
			if e.Name != want[i].name || e.Unit != want[i].unit {
				t.Errorf("%s metric %d: contract has %s [%s], program has %s [%s]", kind, i, e.Name, e.Unit, want[i].name, want[i].unit)
			}
			if !unitRE.MatchString(e.Unit) || (e.Better != "lower" && e.Better != "higher") {
				t.Errorf("%s metric %s: unit %q, better %q", kind, e.Name, e.Unit, e.Better)
			}
		}
	}
	compare("end_to_end", contract.EndToEnd, endToEndMetrics)
	compare("per_layer", contract.PerLayer, perLayerMetrics)
	for _, e := range contract.EndToEnd {
		if e.Bound != endToEndBounds[e.Name] || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v in the contract, %v in the program", e.Name, e.Bound, endToEndBounds[e.Name])
		}
		if (e.Better == "higher") != higherIsBetter[e.Name] {
			t.Errorf("%s: better=%s disagrees with the program", e.Name, e.Better)
		}
	}
	if contract.RunSeconds < 1 || contract.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", contract.RunSeconds)
	}
	if !equal(contract.Paths, []string{"benchmark"}) || !equal(contract.Command, []string{"go", "run", "./benchmark"}) {
		t.Errorf("command %v, paths %v", contract.Command, contract.Paths)
	}
}
