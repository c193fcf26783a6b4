package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// environment is recorded in every report, so that numbers from different
// machines are never compared by accident.
type environment struct {
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Kernel     string  `json:"kernel"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"commit"`
}

// workloadReport is both passes of one workload.
type workloadReport struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailRatio float64           `json:"fail_ratio"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
}

// fullReport is what one full run writes. It claims nothing: Claim is
// always null, a later change that claims a gain fills in its own.
type fullReport struct {
	Env          environment               `json:"env"`
	Workloads    map[string]workloadReport `json:"workloads"`
	ChecksPassed bool                      `json:"checks_passed"`
	Claim        *string                   `json:"claim"`
}

func currentEnv(seed int64, seconds float64) environment {
	env := environment{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Kernel: "unknown", Seed: seed, Seconds: seconds, Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	// A checkout that is not a git repository has no commit to name.
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(b))
	}
	return env
}

// runAll runs every workload twice, untraced then traced, each in a fresh
// process, prints every metric by name and unit, and writes the report.
func runAll(seed int64, seconds float64, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := fullReport{Env: currentEnv(seed, seconds), Workloads: make(map[string]workloadReport), ChecksPassed: true}
	for _, w := range workloads {
		var wr workloadReport
		wr.Correct = true
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s --trace %d printed no result (%v): %w", w.name, trace, runErr, err)
			}
			wr.Correct = wr.Correct && res.Correct && runErr == nil
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			if trace == 0 {
				wr.EndToEnd = res.Metrics
			} else {
				wr.PerLayer = res.Metrics
			}
		}
		wr.FailRatio = div(float64(wr.Failed), float64(wr.Attempted))
		rep.Workloads[w.name] = wr
		rep.ChecksPassed = rep.ChecksPassed && wr.Correct
		printWorkload(w.name, wr)
	}
	if out == "" {
		out = filepath.Join(benchDir, "out", fmt.Sprintf("report-seed%d.json", seed))
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("report: %s\nchecks_passed: %v\n\"claim\": null\n", out, rep.ChecksPassed)
	if !rep.ChecksPassed {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

func printWorkload(name string, wr workloadReport) {
	fmt.Printf("\n%s  correct=%v attempted=%d failed=%d fail_ratio=%g\n", name, wr.Correct, wr.Attempted, wr.Failed, wr.FailRatio)
	for _, part := range []struct {
		defs []metricDef
		ms   map[string]metric
	}{{endToEnd, wr.EndToEnd}, {perLayer, wr.PerLayer}} {
		for _, d := range part.defs {
			fmt.Printf("  %-30s %16.6g %s\n", d.Name, part.ms[d.Name].Value, d.Unit)
		}
	}
}

func readReport(path string) (fullReport, error) {
	var rep fullReport
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	return rep, json.Unmarshal(data, &rep)
}

// compareReports judges report b against report a by the bounds: for
// every workload and end-to-end metric, how much worse b is, as a share of
// a. It refuses reports from machines with different CPU counts.
func compareReports(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two report files, got %d", len(paths))
	}
	a, err := readReport(paths[0])
	if err != nil {
		return err
	}
	b, err := readReport(paths[1])
	if err != nil {
		return err
	}
	if a.Env.CPUs != b.Env.CPUs {
		return fmt.Errorf("refusing to compare: %s ran on %d cpus, %s on %d", paths[0], a.Env.CPUs, paths[1], b.Env.CPUs)
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	over := 0
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		fmt.Printf("%s  fail_ratio %g → %g\n", name, wa.FailRatio, wb.FailRatio)
		if wb.FailRatio > wa.FailRatio {
			over++
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value
			worse := div(vb-va, va)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict = "REGRESSION"
				over++
			}
			fmt.Printf("  %-18s %14.6g → %14.6g %-6s worse by %+7.2f%% (bound %.0f%%) %s\n",
				d.Name, va, vb, d.Unit, 100*worse, 100*d.Bound, verdict)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d metrics are worse than their bound allows", over)
	}
	return nil
}
