package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"sort"
	"testing"

	"repro/internal/audit"
	"repro/internal/bls"
	"repro/internal/serve"
)

var binDir string

// TestMain builds the three daemons once for every test.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-bin")
	if err != nil {
		panic(err)
	}
	cmd := exec.Command("go", "build", "-o", dir+"/", "repro/cmd/trustdomaind", "repro/cmd/monitord", "repro/cmd/auditord")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		os.RemoveAll(dir)
		panic("building daemons: " + err.Error())
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// smallConfig runs a few ops on a tiny prefill.
func smallConfig(t *testing.T, workload string, trace bool) *config {
	ops := int64(20)
	if workload == "sign" {
		ops = 3
	}
	return &config{workload: workload, seed: 7, seconds: 60, trace: trace, binDir: binDir,
		workDir: t.TempDir(), readLog: 64, ingestLog: 32, maxOps: ops}
}

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) *benchSpec {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return &spec
}

// TestSmoke runs every workload untraced and traced, and checks that the
// printed metric names and units are exactly those BENCHMARK.json
// declares and that no op failed.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, doc, err := run(smallConfig(t, wl.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d checks=%v",
					wl.Name, trace, res.Correct, res.Attempted, res.Failed, doc.Checks)
			}
			var got, exp []string
			for name, m := range res.Metrics {
				if m.Unit == "" {
					t.Errorf("%s: metric %s has no unit", wl.Name, name)
				}
				got = append(got, name+" "+m.Unit)
			}
			for _, m := range want {
				exp = append(exp, m.Name+" "+m.Unit)
			}
			sort.Strings(got)
			sort.Strings(exp)
			if len(got) != len(exp) {
				t.Fatalf("%s trace=%v: printed %v, BENCHMARK.json declares %v", wl.Name, trace, got, exp)
			}
			for i := range got {
				if got[i] != exp[i] {
					t.Errorf("%s trace=%v: printed %q, BENCHMARK.json declares %q", wl.Name, trace, got[i], exp[i])
				}
			}
		}
	}
}

// TestTamperedCountedAsFailed corrupts a proof, a group signature and a
// status between receipt and verification, and requires every op to be
// counted as failed, so the checks cannot pass vacuously.
func TestTamperedCountedAsFailed(t *testing.T) {
	sk, _, err := bls.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	forged := sk.Sign([]byte("not the message"))
	cases := map[string]func(kind string, v any){
		"read": func(kind string, v any) {
			resp := v.(*serve.ProofResponse)
			resp.Payload = append([]byte{}, resp.Payload...)
			resp.Payload[len(resp.Payload)/2] ^= 1
		},
		"sign": func(kind string, v any) {
			*v.(*bls.Signature) = *forged
		},
		"ingest": func(kind string, v any) {
			v.([]*audit.AttestedStatusEnvelope)[0].Resp.Status.Version++
		},
	}
	for wl, tamper := range cases {
		cfg := smallConfig(t, wl, false)
		cfg.tamper = tamper
		res, _, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
			t.Errorf("%s with tampered input: correct=%v attempted=%d failed=%d, want every op failed",
				wl, res.Correct, res.Attempted, res.Failed)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// TestLostPortDetected checks that a daemon that exits because its
// reserved port was taken is recognised, so its start is retried.
func TestLostPortDetected(t *testing.T) {
	dir := t.TempDir()
	script := "#!/bin/sh\necho 'listen tcp 127.0.0.1:1: bind: address already in use' >&2\nexit 1\n"
	if err := os.WriteFile(dir+"/fake", []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon(dir, dir, "fake", "127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	<-d.done
	d.stop()
	if !d.lostPort() {
		t.Errorf("exit on a taken port not detected; log:\n%s", tail(d.logPath, 5))
	}
}
