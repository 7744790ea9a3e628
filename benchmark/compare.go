package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// spreadRow is one end-to-end metric of one workload over a run set.
type spreadRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Q1       float64   `json:"q1"`
	Median   float64   `json:"median"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"spread"` // (q3 − q1) ÷ median
	Bound    float64   `json:"bound"`
}

type spreadRows []spreadRow

// spreadOf reduces a run set to median, quartiles and spread per
// end-to-end metric and workload, the way the driver does: quartiles as
// Python's statistics.quantiles(values, n=4) gives them.
func spreadOf(runs []oneRun) spreadRows {
	var rows spreadRows
	for _, w := range workloads {
		for _, s := range endToEnd {
			row := spreadRow{Workload: w.Name, Metric: s.Name, Unit: s.Unit, Bound: s.Bound}
			for _, r := range runs {
				for _, rep := range r.Workloads {
					if v, ok := rep.Metrics[s.Name].Value.(float64); ok && rep.Workload == w.Name {
						row.Values = append(row.Values, v)
					}
				}
			}
			if len(row.Values) == 0 {
				continue
			}
			row.Q1, row.Median, row.Q3 = quartiles(row.Values)
			row.Spread = spread(row.Values)
			rows = append(rows, row)
		}
	}
	return rows
}

func (rows spreadRows) print() {
	fmt.Printf("%-20s %-16s %5s %13s %13s %13s %8s %6s\n", "workload", "metric", "runs", "q1", "median", "q3", "spread", "bound")
	for _, r := range rows {
		mark := ""
		if r.Spread > r.Bound && r.Metric != "setup_s" {
			mark = "  spread exceeds bound"
		}
		fmt.Printf("%-20s %-16s %5d %13.6g %13.6g %13.6g %8.4f %6.2f%s\n",
			r.Workload, r.Metric, len(r.Values), r.Q1, r.Median, r.Q3, r.Spread, r.Bound, mark)
	}
}

func (rows spreadRows) find(workload, metric string) *spreadRow {
	for i := range rows {
		if rows[i].Workload == workload && rows[i].Metric == metric {
			return &rows[i]
		}
	}
	return nil
}

func loadRunSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Runs) == 0 {
		return nil, fmt.Errorf("%s holds no untraced runs", path)
	}
	return &set, nil
}

// compareFiles prints, per workload, each end-to-end metric's change from
// the first run set to the second against its bound. A metric whose
// run-to-run spread exceeds the bound is unresolved, not unchanged,
// unless every run of the second set reads better than every run of the
// first. It fails on a regression or on any failed operation.
func compareFiles(parentPath, changePath string) error {
	parent, err := loadRunSet(parentPath)
	if err != nil {
		return err
	}
	change, err := loadRunSet(changePath)
	if err != nil {
		return err
	}
	a, b := spreadOf(parent.Runs), spreadOf(change.Runs)
	fmt.Printf("parent: %s (%d runs, %s, commit %s)\nchange: %s (%d runs, %s, commit %s)\n",
		parentPath, len(parent.Runs), parent.Host.CPU, parent.Host.Commit,
		changePath, len(change.Runs), change.Host.CPU, change.Host.Commit)
	fmt.Printf("%-20s %-16s %13s %13s %9s %6s %8s  %s\n", "workload", "metric", "parent", "change", "worse by", "bound", "spread", "verdict")
	regressed := 0
	for _, w := range workloads {
		for _, s := range endToEnd {
			ra, rb := a.find(w.Name, s.Name), b.find(w.Name, s.Name)
			if ra == nil || rb == nil {
				fmt.Printf("%-20s %-16s missing from one run set\n", w.Name, s.Name)
				regressed++
				continue
			}
			// Positive means the change reads worse.
			worse := (rb.Median - ra.Median) / ra.Median
			if s.Better == "higher" {
				worse = -worse
			}
			sp := max(ra.Spread, rb.Spread)
			verdict := "within bound"
			switch {
			case allBetter(ra.Values, rb.Values, s.Better):
				verdict = "better in every run"
			case sp > s.Bound:
				verdict = "unresolved (spread exceeds bound)"
			case worse > s.Bound:
				verdict = "REGRESSED"
				regressed++
			}
			fmt.Printf("%-20s %-16s %13.6g %13.6g %+8.1f%% %5.0f%% %7.1f%%  %s\n",
				w.Name, s.Name, ra.Median, rb.Median, 100*worse, 100*s.Bound, 100*sp, verdict)
		}
	}
	failed := 0
	for _, set := range []*runSet{parent, change} {
		for _, r := range set.Runs {
			for _, rep := range r.Workloads {
				failed += rep.Failed
			}
		}
	}
	fmt.Printf("error_rate: %d failed operations across both run sets\n", failed)
	if regressed > 0 || failed > 0 {
		return fmt.Errorf("%d regressions, %d failed operations", regressed, failed)
	}
	return nil
}

// allBetter reports whether every value of b is better than every value of a.
func allBetter(a, b []float64, better string) bool {
	sa, sb := sorted(a), sorted(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
