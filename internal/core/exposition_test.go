package core

import (
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/ssrg-vt/rinval/internal/obs"
)

// goldenFamilies is the complete expected set of OpenMetrics families when
// every observability layer is on (attribution, latency, server histograms,
// windowed telemetry with SLOs). Renaming or dropping a family is a breaking
// change for scrapers — update this list deliberately.
var goldenFamilies = []string{
	"stm_commits", "stm_aborts", "stm_readonly", "stm_ro_commits",
	"stm_ro_fallbacks", "stm_attribution_enabled", "stm_wasted_ns",
	"stm_wasted_ops", "stm_bloom_fp_checks", "stm_bloom_fp", "stm_conflicts",
	"stm_hot_var_samples",
	"stm_latency_enabled", "stm_latency_sampled_commits", "stm_latency_ns",
	"stm_server_queue_depth", "stm_server_step_ahead", "stm_batch_size",
	"stm_timeseries_enabled", "stm_timeseries_windows", "stm_rate",
	"stm_window_quantile_ns", "stm_slo_burn", "stm_slo_firing",
	"stm_slo_alerts",
}

// expositionFor builds one engine's full /metrics page, exactly as the
// benchmark harness publishes it.
func expositionFor(t *testing.T, algo Algo, mutate func(*Config)) string {
	t.Helper()
	s := newServerSys(t, algo, func(c *Config) {
		c.Attribution = true
		c.LatencySampleEvery = 1
		c.TimeSeries = 16
		c.TimeSeriesInterval = time.Minute // quiet sampler; ticks driven below
		c.SLOs = []obs.SLO{{
			Kind: obs.SLOAbortRate, MaxRate: 0.2,
			Fast: 2 * time.Minute, Slow: 4 * time.Minute,
		}}
		if mutate != nil {
			mutate(c)
		}
	})
	th := s.MustRegister()
	v := NewVar(0)
	for i := 0; i < 40; i++ {
		if err := th.Atomically(func(tx *Tx) error {
			tx.Store(v, tx.Load(v).(int)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ { // read-only traffic for the ro families
		if err := th.Atomically(func(tx *Tx) error {
			_ = tx.Load(v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Quiesce so the page is exact. Close is idempotent, so the newSys
	// cleanup's second Close is a no-op.
	th.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.tsTick(time.Now().UnixNano())
	rep := s.TimeSeriesReport()
	page := obs.MetricsPage{
		Conflict:   s.ConflictReport(),
		Latency:    s.LatencyReport(),
		Server:     s.ServerPhaseHistograms(),
		TimeSeries: &rep,
	}
	var b strings.Builder
	page.WriteOpenMetrics(&b)
	return b.String()
}

// typeFamilies extracts the `# TYPE <name> <type>` declarations in order.
func typeFamilies(exposition string) []string {
	var fams []string
	for _, line := range strings.Split(exposition, "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fams = append(fams, strings.Fields(f)[0])
		}
	}
	return fams
}

// TestOpenMetricsExpositionGolden pins the full metric surface per engine
// family: the exact family set, plus engine-distinguishing labels (shard
// children only under Config.Shards > 1).
func TestOpenMetricsExpositionGolden(t *testing.T) {
	cases := []struct {
		name   string
		algo   Algo
		mutate func(*Config)
		want   []string // substrings that must appear
		absent []string // substrings that must not
	}{
		{
			name: "norec", algo: NOrec,
			want: []string{
				`stm_aborts_total{reason="invalidated"}`,
				`side="client"`, // latency histogram children
				`stm_rate{metric="commits",window=`,
				`stm_slo_burn{slo="abort-rate",window="fast"}`,
				"stm_timeseries_enabled 1",
			},
			absent: []string{`shard="`},
		},
		{
			name: "invalstm", algo: InvalSTM,
			want:   []string{`stm_aborts_total{reason="invalidated"}`, `stm_slo_firing{slo="abort-rate"}`},
			absent: []string{`shard="`},
		},
		{
			name: "rinval-v2-sharded-mv", algo: RInvalV2,
			mutate: func(c *Config) { c.Shards = 2; c.Versions = 4 },
			want: []string{
				`shard="0"`, `shard="1"`, // one server-histogram child set per shard
				`stm_server_queue_depth_count{shard="1"}`, `phase="scan",side="server"`,
				"stm_ro_commits",
				`stm_window_quantile_ns{phase="total",q="0.99",window=`,
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			out := expositionFor(t, tc.algo, tc.mutate)
			got := typeFamilies(out)
			sortedGot := append([]string(nil), got...)
			sortedWant := append([]string(nil), goldenFamilies...)
			sort.Strings(sortedGot)
			sort.Strings(sortedWant)
			if strings.Join(sortedGot, ",") != strings.Join(sortedWant, ",") {
				t.Errorf("family set drifted:\n got %v\nwant %v", sortedGot, sortedWant)
			}
			seen := map[string]bool{}
			for _, f := range got {
				if seen[f] {
					t.Errorf("family %s declared twice", f)
				}
				seen[f] = true
			}
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Errorf("exposition missing %q", w)
				}
			}
			for _, a := range tc.absent {
				if strings.Contains(out, a) {
					t.Errorf("exposition unexpectedly contains %q", a)
				}
			}
		})
	}
}

// TestOpenMetricsHelpConformance: every # TYPE declaration is immediately
// preceded by a # HELP line for the same family (the family() helper's
// invariant, checked over the real full exposition).
func TestOpenMetricsHelpConformance(t *testing.T) {
	out := expositionFor(t, RInvalV2, func(c *Config) { c.Shards = 2; c.Versions = 4 })
	lines := strings.Split(out, "\n")
	types := 0
	for i, line := range lines {
		f, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		types++
		name := strings.Fields(f)[0]
		if i == 0 || !strings.HasPrefix(lines[i-1], "# HELP "+name+" ") {
			t.Errorf("family %s has no # HELP line immediately before its # TYPE", name)
		}
		if help := strings.TrimPrefix(lines[i-1], "# HELP "+name+" "); strings.TrimSpace(help) == "" {
			t.Errorf("family %s has an empty # HELP text", name)
		}
	}
	if types != len(goldenFamilies) {
		t.Errorf("declared %d families, want %d", types, len(goldenFamilies))
	}
	t.Logf("OpenMetrics families: %d", types) // read by `make size`
}
