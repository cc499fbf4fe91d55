package main

import (
	"fmt"
	"io"

	"github.com/ssrg-vt/rinval/stm"
)

// serverPhases are the commit-server phases copied from the program's own
// System.LatencyReport, so that the benchmark's outside view of a remote
// commit (span.tx_self_ns_mean) can be set against the program's split.
var serverPhases = []string{"collect", "scan", "inval-wait", "write-back", "reply"}

// tracedCell is one traced cell reduced to what is reported; the span
// buffers themselves are dropped once summed.
type tracedCell struct {
	out     cellOut
	sums    spanSums
	excerpt traceEngine
}

// tracer runs traced cells on demand and keeps each one, so that the cell
// giving a workload's span metrics also serves as the container probe.
type tracer struct {
	p     plan
	seed  uint64
	cells map[string]*tracedCell
}

func (t *tracer) cell(w workload, algo stm.Algo) *tracedCell {
	key := w.name + "/" + algo.String()
	if c, ok := t.cells[key]; ok {
		return c
	}
	c := &tracedCell{out: runCell(w, algo, 0, t.seed, t.p, true, nil)}
	for _, r := range c.out.recs {
		c.sums.add(r)
	}
	c.excerpt = newTraceEngine(c.out.recs, &c.sums)
	c.out.recs = nil
	t.cells[key] = c
	return c
}

// runTraced prints, for each workload, every per-layer metric: the layer
// micro-metrics, the counters of an untraced reference run, and the span
// metrics of one traced cell per engine, which it also writes to
// <outDir>/trace-<workload>.json. End-to-end metrics never come from here.
func runTraced(stdout io.Writer, ws []workload, p plan, seed uint64, outDir string) error {
	h := host(seed, p)
	fmt.Fprintln(stdout, h)
	layer := layerMetrics(p, seed)
	tr := &tracer{p: p, seed: seed, cells: map[string]*tracedCell{}}
	var failedTotal uint64
	for _, ref := range runUntraced(ws, p, seed) {
		m := append(metrics(nil), layer...)
		attempted, failed := ref.attempted, ref.failed
		errs := ref.errs
		tf := traceFile{Host: h, Workload: ref.w.name, SpanKinds: spanKindNames[:], ExcerptTx: traceExcerptTx, Engines: map[string]traceEngine{}}

		var loads, stores, aborts, invals, epochs, valOps, p90, p99, cpu, bytes metrics
		var span [6]metrics
		var server metrics
		for e, algo := range engines {
			name := algo.String()
			s, life, all := ref.series[e], ref.last[e].life, ref.last[e].clientLife
			tc := tr.cell(ref.w, algo)
			attempted, failed = attempted+tc.out.attempted, failed+tc.out.failed
			if tc.out.err != nil {
				errs = append(errs, tc.out.err)
			}
			tf.Engines[name] = tc.excerpt

			tx := float64(tc.out.measuredTx)
			loads.add("core.loads_per_tx."+name, ratio(float64(tc.out.measured.Reads), tx), "1/tx")
			stores.add("core.stores_per_tx."+name, ratio(float64(tc.out.measured.Writes), tx), "1/tx")
			// Server-side counters can only be read after Close, so these
			// ratios are over the reference System's whole life.
			writers := float64(all.Commits - all.ReadOnly)
			aborts.add("core.aborts_per_commit."+name, ratio(float64(all.Aborts), float64(all.Commits)), "ratio")
			if algo != stm.NOrec {
				invals.add("core.invalidations_per_commit."+name, ratio(float64(life.Invalidations), writers), "ratio")
			} else {
				valOps.add("core.validation_ops_per_tx."+name, ratio(float64(all.ValidationOps), float64(all.Commits)), "1/tx")
			}
			if tc.out.server != nil {
				epochs.add("core.epochs_per_commit."+name, ratio(float64(life.Epochs), writers), "ratio")
				for _, ph := range serverPhases {
					server.add("core.server."+ph+"_ns_mean."+name, tc.out.server[ph], "ns")
				}
			}
			lat := s.latencies()
			p90.add("client.lat_p90_us."+name, quantile(lat, 0.90)/1e3, "us")
			p99.add("client.lat_p99_us."+name, quantile(lat, 0.99)/1e3, "us")
			cpu.add("proc.cpu_us_per_tx."+name, ratio(float64(s.cpu.Microseconds()), float64(s.tx)), "us")
			bytes.add("proc.bytes_per_tx."+name, ratio(float64(s.bytes), float64(s.tx)), "B/tx")

			// Means per transaction, so that tx_self + attempt_self + op = tx.
			sums := &tc.sums
			txNs := sums.perTx(sums.ns[spanTx])
			untraced := ratio(float64(s.wall.Nanoseconds())*float64(ref.w.clients), float64(s.tx))
			span[0].add("span.tx_ns_mean."+name, txNs, "ns")
			span[1].add("span.tx_self_ns_mean."+name, sums.perTx(sums.ns[spanTx]-sums.ns[spanAttempt]), "ns")
			span[2].add("span.attempt_self_ns_mean."+name, sums.perTx(sums.ns[spanAttempt]-sums.opNs()), "ns")
			span[3].add("span.op_ns_mean."+name, sums.perTx(sums.opNs()), "ns")
			span[4].add("span.attempts_per_tx."+name, sums.perTx(sums.count[spanAttempt]), "1/tx")
			span[5].add("span.trace_overhead_pct."+name, 100*ratio(txNs-untraced, untraced), "%")
			if sums.dropped > 0 {
				errs = append(errs, fmt.Errorf("%s/%s: span buffer full, %d spans dropped", ref.w.name, name, sums.dropped))
				failed++
			}
		}
		for _, group := range []metrics{loads, stores, aborts, invals, epochs, valOps, p90, p99, cpu, bytes} {
			m = append(m, group...)
		}
		for _, group := range span {
			m = append(m, group...)
		}

		// The containers are measured where they are the workload: on NOrec,
		// the engine that adds least of its own to an operation.
		probe := func(name string) *tracedCell {
			w, _ := workloadByName(name)
			tc := tr.cell(w, stm.NOrec)
			if name != ref.w.name { // else counted with the engines above
				attempted, failed = attempted+tc.out.attempted, failed+tc.out.failed
				if tc.out.err != nil {
					errs = append(errs, tc.out.err)
				}
			}
			return tc
		}
		tc := probe("rbtree_mix_c1")
		ops := float64(tc.sums.opCount())
		m.add("rbtree.contains_ns", tc.sums.opMean(opContains), "ns")
		m.add("rbtree.insert_ns", tc.sums.opMean(opInsert), "ns")
		m.add("rbtree.delete_ns", tc.sums.opMean(opDelete), "ns")
		m.add("rbtree.loads_per_op", ratio(float64(tc.out.measured.Reads), ops), "1/op")
		m.add("rbtree.stores_per_op", ratio(float64(tc.out.measured.Writes), ops), "1/op")
		tc = probe("kv_contend_c2")
		m.add("dsmap.get_ns", tc.sums.opMean(opGet), "ns")
		m.add("dsmap.put_ns", tc.sums.opMean(opPut), "ns")
		m.add("dsmap.loads_per_op", ratio(float64(tc.out.measured.Reads), float64(tc.sums.opCount())), "1/op")
		m = append(m, server...)

		path, err := writeTraceFile(outDir, tf)
		if err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		printErrs(errs)
		if err := printReport(stdout, ref.w.name+" per layer, spans in "+path, m, attempted, failed); err != nil {
			return err
		}
		failedTotal += failed
	}
	if failedTotal > 0 {
		return errIncorrect
	}
	return nil
}
