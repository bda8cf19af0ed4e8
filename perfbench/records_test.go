package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metrics and
// workloads this program reports in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	var b benchmarkFile
	readJSON(t, "../BENCHMARK.json", &b)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, d := range endToEnd {
		m := b.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v, want the largest (%v)", setupBound, maxBound)
	}
	if len(b.PerLayer) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(layerDefs))
	}
	for i, d := range layerDefs {
		m := b.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("metric or workload name %q is malformed or repeated", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: malformed unit %q", n, u)
		}
	}
	for _, w := range b.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.ContainsRune(w.Why, '\n') {
			t.Errorf("%s: why is not one line of at most 200 characters", w.Name)
		}
	}
	for _, m := range b.EndToEnd {
		check(m.Name, m.Unit)
	}
	for _, m := range b.PerLayer {
		check(m.Name, m.Unit)
	}
}

// TestInteractionsMatchTables keeps the interaction map in step with the
// workloads and per-layer metrics.
func TestInteractionsMatchTables(t *testing.T) {
	var im struct {
		Workloads []struct {
			Name    string `json:"name"`
			Loop    string `json:"loop"`
			Clients int    `json:"clients"`
			Why     string `json:"why"`
		} `json:"workloads"`
		PerLayer []struct {
			Name  string `json:"name"`
			Moves string `json:"moves"`
			On    string `json:"on"`
		} `json:"per_layer"`
	}
	readJSON(t, "interactions.json", &im)
	if len(im.Workloads) != len(workloads) || len(im.PerLayer) != len(layerDefs) {
		t.Fatalf("interactions.json has %d workloads and %d metrics, the program %d and %d",
			len(im.Workloads), len(im.PerLayer), len(workloads), len(layerDefs))
	}
	for i, w := range workloads {
		got := im.Workloads[i]
		if got.Name != w.name || got.Loop != w.loop || got.Clients != w.clients || got.Why != w.why {
			t.Errorf("workload %d: interactions.json %+v, program %+v", i, got, w)
		}
	}
	names := map[string]bool{"all": true}
	for _, w := range workloads {
		names[w.name] = true
	}
	for i, d := range layerDefs {
		got := im.PerLayer[i]
		if got.Name != d.name || got.Moves != d.moves || got.On != d.on {
			t.Errorf("metric %d: interactions.json %+v, program %+v", i, got, d)
		}
		for _, on := range strings.Fields(d.on) {
			if !names[on] {
				t.Errorf("%s moves a metric on unknown workload %q", d.name, on)
			}
		}
	}
}

// TestRequestsCarryNoBenchmarkNames checks that nothing identifying the
// benchmark, a workload or a flag reaches the service: it sees only
// dataset names and query parameters of its own API.
func TestRequestsCarryNoBenchmarkNames(t *testing.T) {
	var paths []string
	for _, k := range hotKeys() {
		paths = append(paths, k.path())
	}
	for _, spec := range append(copies(smallSpec, graphCopies), append(copies(hubSpec, graphCopies), clusterSpec, streamSpec)...) {
		paths = append(paths, request{endpoint: "count", dataset: spec.name, delta: baseDelta}.path())
	}
	banned := append(workloadNames(), "perfbench", "workload", "trace", "bench")
	for _, p := range paths {
		for _, b := range banned {
			if strings.Contains(p, b) {
				t.Errorf("request %s names %q", p, b)
			}
		}
	}
}
