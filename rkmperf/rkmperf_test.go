package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func smokeOptions(t *testing.T, name string, trace bool) options {
	return options{workload: name, seed: 7, seconds: 1.5, trace: trace, data: t.TempDir(), setups: 2, scale: 0.05}
}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks that its correctness checks pass and that it emits exactly the
// metrics BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, wl := range spec.Workloads {
		if workloads[wl.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark lacks", wl.Name)
		}
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			r, err := run(smokeOptions(t, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res := r.line()
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d/%d: %v", name, trace, res.Correct, res.Failed, res.Attempted, r.errors)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

// measureOnce sets up w and measures it for d without the result line.
func measureOnce(t *testing.T, r *runner, d time.Duration) {
	t.Helper()
	if err := r.w.setup(r, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	r.start = time.Now()
	r.deadline = r.start.Add(d)
	r.w.measure(r)
	r.ended = time.Now()
}

// TestWrongReferenceFails shows that the checks are live: a reference
// with one alert too many fails the alert check, and a wrong tally fails
// every read checked against it; both raise the error rate.
func TestWrongReferenceFails(t *testing.T) {
	t.Run("alerts", func(t *testing.T) {
		w := &admitLarge{}
		r := &runner{opt: smokeOptions(t, "admit-large", false), w: w}
		measureOnce(t, r, 500*time.Millisecond)
		w.naiveWant = append(w.naiveWant, regionAlertKey("fig9-naive", "region-00", 99, 1))
		w.check(r)
		if res := r.line(); res.Correct || res.Failed != 1 {
			t.Fatalf("correct=%v failed=%d, want one failed check", res.Correct, res.Failed)
		}
	})
	t.Run("reads", func(t *testing.T) {
		w := &analystReads{}
		r := &runner{opt: smokeOptions(t, "analyst-reads", false), w: w}
		if err := w.setup(r, t.TempDir()); err != nil {
			t.Fatal(err)
		}
		for k := range w.frozen {
			w.frozen[k]++
		}
		r.start = time.Now()
		r.deadline = r.start.Add(300 * time.Millisecond)
		w.measure(r)
		r.ended = time.Now()
		res := r.line()
		if res.Correct || res.Failed == 0 {
			t.Fatalf("correct=%v failed=%d, want failed reads", res.Correct, res.Failed)
		}
		t.Logf("error rate %d/%d", res.Failed, res.Attempted)
	})
}
