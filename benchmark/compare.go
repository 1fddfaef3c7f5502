package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict compares the second run's metric b with the first's a, all
// metrics being lower-is-better. An exact metric is a count and must
// repeat exactly. Where either side's q1–q3 spread is wider than the bound
// the runs cannot resolve a difference of that size, and the answer is
// "unresolved" rather than "same".
func verdict(a, b summary, bound float64, exact bool) string {
	if exact {
		switch {
		case b.Median > a.Median:
			return "worse"
		case b.Median < a.Median:
			return "better"
		}
		return "same"
	}
	if a.Median <= 0 || b.Median <= 0 {
		return "unresolved"
	}
	if (a.Q3-a.Q1)/a.Median > bound || (b.Q3-b.Q1)/b.Median > bound {
		return "unresolved"
	}
	switch delta := b.Median/a.Median - 1; {
	case delta > bound:
		return "worse"
	case delta < -bound:
		return "better"
	}
	return "same"
}

// comparable reports why two result files cannot be compared: a different
// run shape, failed ops, or a workload or metric one of them lacks.
func comparable(a, b *result) error {
	if a.Env.Quick != b.Env.Quick || a.Env.Epochs != b.Env.Epochs ||
		a.Env.Passes != b.Env.Passes || a.Env.RunSeconds != b.Env.RunSeconds {
		return fmt.Errorf("the run shapes differ: quick %v/%v, epochs %d/%d, passes %d/%d, run_seconds %d/%d",
			a.Env.Quick, b.Env.Quick, a.Env.Epochs, b.Env.Epochs, a.Env.Passes, b.Env.Passes, a.Env.RunSeconds, b.Env.RunSeconds)
	}
	if len(a.Workloads) != len(b.Workloads) {
		return fmt.Errorf("%d workloads against %d", len(a.Workloads), len(b.Workloads))
	}
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		if wa.Name != wb.Name {
			return fmt.Errorf("workload %d is %s in one file and %s in the other", i, wa.Name, wb.Name)
		}
		for _, w := range []*workloadResult{wa, wb} {
			if w.OpsFailed > 0 {
				return fmt.Errorf("%s: %d of %d ops failed in one of the runs", w.Name, w.OpsFailed, w.OpsAttempted)
			}
			for _, m := range endToEnd {
				if w.EndToEnd[m.name].N == 0 {
					return fmt.Errorf("%s: one of the runs has no %s", w.Name, m.name)
				}
			}
		}
	}
	return nil
}

// compareFiles prints, for every workload and end-to-end metric, both
// medians with their quartiles and the verdict, and reports whether any
// metric is worse. A run the hypervisor stole more than stealLimit of
// cannot resolve a timing either way.
func compareFiles(out io.Writer, pathA, pathB string) (worse bool, err error) {
	var a, b result
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	if err := comparable(&a, &b); err != nil {
		return false, err
	}
	stolen := a.Env.StealFrac > stealLimit || b.Env.StealFrac > stealLimit
	if stolen {
		fmt.Fprintf(out, "steal_frac %.3f / %.3f exceeds %.2f: the timings are unresolved\n", a.Env.StealFrac, b.Env.StealFrac, stealLimit)
	}
	fmt.Fprintf(out, "%-16s %-15s %12s %25s %12s %25s %8s  %s\n",
		"workload", "metric", "a median", "a [q1, q3]", "b median", "b [q1, q3]", "b/a-1", "verdict")
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		for _, m := range endToEnd {
			sa, sb := wa.EndToEnd[m.name], wb.EndToEnd[m.name]
			v := verdict(sa, sb, bounds[m.name], m.exact())
			if stolen && timings[m.name] {
				v = "unresolved"
			}
			worse = worse || v == "worse"
			delta := 0.0
			if sa.Median != 0 {
				delta = sb.Median/sa.Median - 1
			}
			fmt.Fprintf(out, "%-16s %-15s %12.6g %25s %12.6g %25s %+7.1f%%  %s\n", wa.Name, m.name,
				sa.Median, fmt.Sprintf("[%.5g, %.5g]", sa.Q1, sa.Q3),
				sb.Median, fmt.Sprintf("[%.5g, %.5g]", sb.Q1, sb.Q3), 100*delta, v)
		}
	}
	return worse, nil
}
