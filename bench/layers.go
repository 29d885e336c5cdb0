package main

// layerValues derives the per-layer metrics of one traced operation
// from its spans. wall is the operation's wall time; the top-level
// phases plus campaign.unassigned_s add up to it by construction.
func layerValues(spans []span, wall float64) map[string]float64 {
	// Aggregates by span name, and by "name/class" for durable spans.
	type agg struct {
		n, failed   int
		sum, self   float64 // inclusive seconds; minus nested children
		bytes, last int64   // total and most recent span's N
		durs        []float64
	}
	aggs := map[string]*agg{}
	a := func(key string) *agg {
		if aggs[key] == nil {
			aggs[key] = &agg{}
		}
		return aggs[key]
	}
	childSum := make([]float64, len(spans))
	for i := range spans {
		if s := &spans[i]; s.Parent >= 0 && !s.Conc {
			childSum[s.Parent] += s.seconds()
		}
	}
	topLevel := 0.0
	for i := range spans {
		s := &spans[i]
		d := s.seconds()
		if s.Parent < 0 {
			topLevel += d
		}
		keys := []string{s.Name}
		if s.Class != "" {
			keys = append(keys, s.Name+"/"+s.Class)
		}
		for _, k := range keys {
			g := a(k)
			g.n++
			g.sum += d
			g.self += d - childSum[i]
			g.bytes += s.N
			g.last = s.N
			if s.Failed {
				g.failed++
			}
			if s.Conc {
				g.durs = append(g.durs, d)
			}
		}
	}

	v := map[string]float64{}
	rt := a("webserver.roundtrip")
	v["webserver.requests"] = float64(rt.n)
	v["webserver.refused"] = float64(rt.failed)
	v["webserver.busy_s"] = rt.sum
	v["webserver.p50_us"] = quantile(rt.durs, 0.50) * 1e6
	v["webserver.p99_us"] = quantile(rt.durs, 0.99) * 1e6

	v["webworld.generate_s"] = a("webworld.generate").sum
	run := a("crawler.run").sum
	v["crawler.run_s"] = run
	checkpoint := a("dataset.site_completed").sum + a("dataset.flush").sum
	if run > 0 {
		v["crawler.consumer_free_s"] = run - a("dataset.write").sum - checkpoint
		v["dataset.commit_share"] = checkpoint / run
	}
	v["crawler.attest_sweep_s"] = a("crawler.attest_sweep").sum
	v["crawler.attest_domains"] = float64(a("crawler.attest_sweep").bytes)

	v["dataset.append_s"] = a("dataset.write").self
	v["dataset.appends"] = float64(a("dataset.write").n)
	v["dataset.checkpoint_s"] = a("dataset.site_completed").self + a("dataset.flush").self
	v["dataset.checkpoints"] = float64(a("analysis.checkpoint").n)
	v["dataset.close_s"] = a("dataset.close").sum
	v["dataset.load_s"] = a("dataset.load").sum
	v["dataset.load_records"] = float64(a("dataset.load").bytes)

	for _, c := range artifactClasses {
		v["durable.write_mb."+c] = float64(a("durable.write/"+c).bytes) / 1e6
		v["durable.sync_s."+c] = a("durable.sync/" + c).sum
		v["durable.syncs."+c] = float64(a("durable.sync/" + c).n)
	}
	v["durable.write_s"] = a("durable.write").sum
	v["durable.rename_s"] = a("durable.rename").sum
	v["durable.syncdir_s"] = a("durable.syncdir").sum

	v["analysis.live_fold_s"] = a("analysis.live_fold").sum
	v["analysis.live_folds"] = float64(a("analysis.live_fold").n)
	v["analysis.snapshot_s"] = a("analysis.checkpoint").self
	v["analysis.snapshots"] = float64(a("durable.rename/snapshot").n)
	v["analysis.snapshot_last_mb"] = float64(a("durable.close/snapshot").last) / 1e6
	v["analysis.live_restore_s"] = a("analysis.live_restore").sum
	v["analysis.live_restore_mb_read"] = float64(a("analysis.live_restore").bytes+a("durable.readfile").bytes) / 1e6
	v["analysis.index_build_s"] = a("analysis.index_build").sum
	v["analysis.sections_s"] = a("analysis.sections").sum
	v["analysis.render_s"] = a("analysis.render").sum
	v["campaign.wall_s"] = wall
	v["campaign.unassigned_s"] = wall - topLevel
	return v
}
