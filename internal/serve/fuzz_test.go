package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"btr/internal/experiments"
)

// FuzzRequest drives arbitrary bytes through the experiment handler's
// input path: the JSON decode (a failure is the handler's 400) and
// resolve. Nothing may panic, every rejection is a structured 400 or
// 429, and every accepted config is within every per-request cap.
// The seed corpus is under testdata/fuzz/FuzzRequest.
func FuzzRequest(f *testing.F) {
	f.Add([]byte(`{"experiments":["T1","F13"],"specs":["gcc/genoutput.i"],"scale":0.05}`))
	s := New(Config{Workers: 1, MaxScale: 2, MaxMemBudget: 1 << 20, MaxDecodedBudget: 1 << 20})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
			return
		}
		ids, specs, cfg, rej := s.resolve(&req)
		if rej != nil {
			if rej.status != http.StatusBadRequest && rej.status != http.StatusTooManyRequests {
				t.Fatalf("rejection status %d, want 400 or 429", rej.status)
			}
			if rej.body.Error == "" {
				t.Fatalf("rejection %d carries no error message", rej.status)
			}
			return
		}
		if !(cfg.Scale > 0 && cfg.Scale <= 2) {
			t.Fatalf("accepted scale %v outside (0, 2]", cfg.Scale)
		}
		if cfg.MemBudget < 0 || cfg.MemBudget > 1<<20 || cfg.DecodedBudget < 0 || cfg.DecodedBudget > 1<<20 {
			t.Fatalf("accepted budgets mem=%d decoded=%d outside [0, 1 MiB]", cfg.MemBudget, cfg.DecodedBudget)
		}
		if cfg.HardDistanceWindow < 0 || cfg.HardDistanceWindow > maxWindow {
			t.Fatalf("accepted window %d outside [0, %d]", cfg.HardDistanceWindow, maxWindow)
		}
		if len(ids) == 0 || len(specs) != len(req.Specs) {
			t.Fatalf("accepted %d ids and %d specs for %d named specs", len(ids), len(specs), len(req.Specs))
		}
		for _, id := range ids {
			if _, err := experiments.Find(id); err != nil {
				t.Fatalf("accepted unknown experiment %q", id)
			}
		}
	})
}
