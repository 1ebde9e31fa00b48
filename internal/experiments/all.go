package experiments

import (
	"io"
	"sort"

	"repro/internal/obs"
)

// Runner executes one named experiment, rendering to w.
type Runner func(w io.Writer, scale Scale) error

// rowsRunner executes one experiment, rendering to w, and also returns its
// result rows.
type rowsRunner func(w io.Writer, scale Scale) (any, error)

// instrumented wraps a runner with a span on the process registry, so a
// run's snapshot attributes wall time per experiment. The rendered output
// is untouched — timings never reach the report stream.
func instrumented(name string, fn rowsRunner) Runner {
	return func(w io.Writer, s Scale) error {
		defer obs.Default.StartPhase("experiment/" + name)()
		_, err := fn(w, s)
		return err
	}
}

// Registry maps experiment names (as used by `cmd/experiments -run`) to
// runners covering every table and figure of the paper plus the ablations.
// Every runner is instrumented with an "experiment/<name>" phase span.
func Registry() map[string]Runner {
	reg := map[string]Runner{}
	for name, fn := range registry() {
		reg[name] = instrumented(name, fn)
	}
	return reg
}

func registry() map[string]rowsRunner {
	return map[string]rowsRunner{
		"fig2":       func(w io.Writer, s Scale) (any, error) { return Fig2(w, s) },
		"fig7":       func(w io.Writer, s Scale) (any, error) { return Fig7(w, s) },
		"fig8":       func(w io.Writer, s Scale) (any, error) { return Fig8(w, s, nil) },
		"fig9":       func(w io.Writer, s Scale) (any, error) { return Fig9(w, s) },
		"table2":     func(w io.Writer, s Scale) (any, error) { return Table2(w, s) },
		"table3":     func(w io.Writer, s Scale) (any, error) { return Table3(w, s) },
		"table4":     func(w io.Writer, s Scale) (any, error) { return Table4(w, s) },
		"baselines":  func(w io.Writer, s Scale) (any, error) { return Baselines(w, s) },
		"staticconf": func(w io.Writer, s Scale) (any, error) { return StaticConf(w, s) },
		"analytic":   func(w io.Writer, s Scale) (any, error) { return Analytic(w, s) },
		"faults":     func(w io.Writer, s Scale) (any, error) { return Faults(w, s) },
		"specgen":    func(w io.Writer, s Scale) (any, error) { return Specgen(w, s) },
		"streaming":  func(w io.Writer, s Scale) (any, error) { return Streaming(w, s) },
		"l2ext":      func(w io.Writer, s Scale) (any, error) { return L2Extension(w, s) },

		"ablation-burst":         func(w io.Writer, s Scale) (any, error) { return AblationBurst(w, s) },
		"ablation-associativity": func(w io.Writer, s Scale) (any, error) { return AblationAssociativity(w, s) },
		"ablation-threshold":     func(w io.Writer, s Scale) (any, error) { return AblationThreshold(w, s, nil) },
		"ablation-period-dist":   func(w io.Writer, s Scale) (any, error) { return AblationPeriodDist(w, s, 0) },
		"ablation-replacement":   func(w io.Writer, s Scale) (any, error) { return AblationReplacement(w, s) },
	}
}

// Names returns the registered experiment names, sorted.
func Names() []string {
	reg := Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
