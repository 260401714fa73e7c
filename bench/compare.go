package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// runCompare compares two sets of result documents, A the baseline and B the
// change: for each (end-to-end metric, workload) it reports both medians and
// quartiles, the share of pairs B wins, and a verdict against the metric's
// bound. Each
// document contributes its workload medians as one run; pairs are formed in
// file-name order. Deterministic counters that differ between A and B for
// the same (workload, seed) are listed as simulated work that changed, so a
// change of speed can be told apart from a change of work.
func runCompare(a, b string, w io.Writer) error {
	docsA, err := loadDocs(a)
	if err != nil {
		return err
	}
	docsB, err := loadDocs(b)
	if err != nil {
		return err
	}
	ref := docsA[0]
	for _, d := range append(docsA[1:], docsB...) {
		if !d.Host.sameMachine(ref.Host) {
			return fmt.Errorf("refusing to compare results from different hosts: %s vs %s", ref.Host, d.Host)
		}
		if d.Seconds != ref.Seconds {
			return fmt.Errorf("refusing to compare runs of different length: -seconds %d vs %d", ref.Seconds, d.Seconds)
		}
	}
	fmt.Fprintf(w, "host: %s\nA: %s (%d documents, commit %s)\nB: %s (%d documents, commit %s)\n\n",
		ref.Host, a, len(docsA), docsA[0].Host.Commit, b, len(docsB), docsB[0].Host.Commit)
	byA, byB := byWorkload(docsA), byWorkload(docsB)

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tn A/B\tB wins\tbound\tverdict")
	for _, wl := range sortedKeys(byA) {
		outsB, ok := byB[wl]
		if !ok {
			continue
		}
		outsA := byA[wl]
		for _, m := range endToEnd {
			va, vb := column(outsA, m.Name), column(outsB, m.Name)
			wins, pairs, v := verdict(m, va, vb)
			qa1, qa3 := quartiles(va)
			qb1, qb3 := quartiles(vb)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%d/%d\t%d/%d\t+%.0f%%\t%s\n",
				wl, m.Name, median(va), qa1, qa3, median(vb), qb1, qb3, len(va), len(vb), wins, pairs, 100*m.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nsimulated work:")
	changed := 0
	for _, wl := range sortedKeys(byA) {
		seedsA, seedsB := bySeed(byA[wl]), bySeed(byB[wl])
		for _, seed := range sortedSeeds(seedsA) {
			ob, ok := seedsB[seed]
			if !ok {
				continue
			}
			oa := seedsA[seed]
			if d := counterDiff(oa.Digest, ob.Digest, oa.Counters, ob.Counters); d != "" {
				fmt.Fprintf(w, "  changed: %s seed %d: %s\n", wl, seed, d)
				changed++
			}
		}
	}
	if changed == 0 {
		fmt.Fprintln(w, "  unchanged: every deterministic counter and sim_digest is identical for each (workload, seed) both sides ran")
	}
	return nil
}

// verdict applies the comparison rule. B counts as better only when there
// are at least ten pairs, it wins nine tenths of them, and the medians differ
// by more than A's quartile spread; as worse when its median is worse than
// A's by more than the bound. When A's own spread exceeds the bound the
// result is unresolved, unless every run of B reads better than every run of
// A.
func verdict(m metric, a, b []float64) (wins, pairs int, v string) {
	better := func(x, y float64) bool {
		if m.Better == "lower" {
			return x < y
		}
		return x > y
	}
	pairs = min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	medA, medB := median(a), median(b)
	q1, q3 := quartiles(a)
	worse := (medB - medA) / medA
	if m.Better != "lower" {
		worse = -worse
	}
	switch {
	case pairs >= 10 && 10*wins >= 9*pairs && better(medB, medA) && math.Abs(medB-medA) > q3-q1:
		return wins, pairs, "better"
	case (q3-q1)/medA > m.Bound && !allBetter:
		return wins, pairs, "unresolved (A's spread exceeds the bound)"
	case worse > m.Bound:
		return wins, pairs, "worse (regression)"
	}
	return wins, pairs, "no regression"
}

// loadDocs reads a result document, or every *.json document of a
// directory in file-name order.
func loadDocs(path string) ([]*document, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var docs []*document
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		d := &document{}
		if err := json.Unmarshal(b, d); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		docs = append(docs, d)
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("%s: no result documents", path)
	}
	return docs, nil
}

func byWorkload(docs []*document) map[string][]*outcome {
	m := map[string][]*outcome{}
	for _, d := range docs {
		for _, o := range d.Outcomes {
			m[o.Workload] = append(m[o.Workload], o)
		}
	}
	return m
}

func bySeed(outs []*outcome) map[int64]*outcome {
	m := map[int64]*outcome{}
	for _, o := range outs {
		if _, ok := m[o.Seed]; !ok {
			m[o.Seed] = o
		}
	}
	return m
}

func sortedSeeds(m map[int64]*outcome) []int64 {
	seeds := make([]int64, 0, len(m))
	for s := range m {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	return seeds
}

func column(outs []*outcome, metric string) []float64 {
	vs := make([]float64, len(outs))
	for i, o := range outs {
		vs[i] = o.EndToEnd[metric]
	}
	return vs
}
