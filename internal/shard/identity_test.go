package shard_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/urlextract"
	"repro/internal/webviewlint"
)

// renderAllTables renders every static-study table and figure — including
// the lint and urlextract tables — which together are the byte-identical
// surface the merge invariant is asserted over.
func renderAllTables(t *testing.T, res *pipeline.Result) string {
	t.Helper()
	aggs := pipeline.Aggregate(res)
	var sb strings.Builder
	sb.WriteString(report.Table2(res.Funnel, 2500))
	sb.WriteString(report.Table3(aggs))
	sb.WriteString(report.TopSDKTable(aggs, false, 2500))
	sb.WriteString(report.TopSDKTable(aggs, true, 2500))
	sb.WriteString(report.Table7(aggs, 2500))
	sb.WriteString(report.Figure3(aggs))
	sb.WriteString(report.Figure4(aggs))
	sb.WriteString(report.LintTable(aggs))
	sb.WriteString(report.URLTable(res.Apps))
	return sb.String()
}

// sequentialRun is the single-process reference: the plain pipeline over
// the whole snapshot, lint and URL stages on.
func sequentialRun(t *testing.T, c *corpus.Corpus) *pipeline.Result {
	t.Helper()
	lint, err := webviewlint.New(webviewlint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := pipeline.New(newTestRepo(c), &testMeta{c: c}, pipeline.Config{
		MinDownloads: corpus.MinDownloads,
		UpdatedAfter: corpus.UpdateCutoff,
		Lint:         lint,
		URLs:         urlextract.New(urlextract.Config{}),
	})
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	return res
}

// TestShardedRunMatchesSequential is the tentpole invariant: the merged
// report from 1 and from 4 worker shards is identical to the sequential
// single-process report — funnel counts, every per-app row, and all
// rendered tables including lint and urlextract.
func TestShardedRunMatchesSequential(t *testing.T) {
	c := testCorpus(t)
	seq := sequentialRun(t, c)
	seqTables := renderAllTables(t, seq)

	for _, tc := range []struct{ shards, workers int }{
		{1, 1},
		{4, 2},
		{4, 4},
	} {
		t.Run(fmt.Sprintf("%dshards_%dworkers", tc.shards, tc.workers), func(t *testing.T) {
			_, merged := fleetRun(t, c, tc.shards, tc.workers, 3)
			if merged.Funnel != seq.Funnel {
				t.Fatalf("funnel diverged:\n  sharded    %+v\n  sequential %+v", merged.Funnel, seq.Funnel)
			}
			if !reflect.DeepEqual(merged.Apps, seq.Apps) {
				t.Fatal("per-app results diverged from the sequential run")
			}
			if !reflect.DeepEqual(merged.Quarantined, seq.Quarantined) {
				t.Fatalf("quarantines diverged: %+v vs %+v", merged.Quarantined, seq.Quarantined)
			}
			if got := renderAllTables(t, merged); got != seqTables {
				t.Fatalf("rendered tables diverged from the sequential run:\n--- sharded ---\n%s\n--- sequential ---\n%s", got, seqTables)
			}
		})
	}
}
