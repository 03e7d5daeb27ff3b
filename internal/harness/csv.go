package harness

import (
	"encoding/csv"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"time"
)

// CSV export: each experiment's structured rows are written as one CSV
// file for external plotting, mirroring the paper's figures. A row type
// names its columns with `csv:"name"` struct tags; untagged fields are
// not exported.

// ExportCSV runs the data-producing experiments and writes one CSV per
// figure into dir.
func ExportCSV(dir string, opt Options) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := []struct {
		name string
		rows func(Options) (any, error)
	}{
		{"fig7_abs_ratio.csv", rowsOf(Fig7Results)},
		{"fig8_rel_ratio.csv", rowsOf(Fig8Results)},
		{"fig10_solutions_ratio.csv", rowsOf(Fig10Results)},
		{"fig11_rates.csv", rowsOf(Fig11Results)},
		{"table2.csv", rowsOf(Table2Results)},
		{"fig16_strong_scaling.csv", rowsOf(Fig16Results)},
		{"fig16w_worker_scaling.csv", rowsOf(WorkerScalingResults)},
		{"sweep_codec_reduction.csv", rowsOf(SweepResults)},
		{"batch.csv", rowsOf(BatchResults)},
		{"sampling.csv", rowsOf(SamplingResults)},
		{"spill.csv", rowsOf(SpillResults)},
		{"crossover.csv", rowsOf(CrossoverResults)},
		{"fig6_fidelity_bounds.csv", rowsOf(fig6Curves)},
	}
	for _, f := range files {
		rows, err := f.rows(opt)
		if err != nil {
			return err
		}
		if err := writeCSV(filepath.Join(dir, f.name), rows); err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
	}
	return nil
}

// rowsOf erases an experiment's row type so ExportCSV can table it.
func rowsOf[R any](results func(Options) ([]R, error)) func(Options) (any, error) {
	return func(opt Options) (any, error) { return results(opt) }
}

// fig6Row is one point of Fig. 6's closed-form Eq. 11 curves.
type fig6Row struct {
	Gates int     `csv:"gates"`
	Bound float64 `csv:"bound"`
	F     float64 `csv:"fidelity_lower_bound"`
}

// fig6Curves samples Π(1-δ) every 250 gates up to 5000 for each
// constant per-gate bound δ.
func fig6Curves(Options) ([]fig6Row, error) {
	var rows []fig6Row
	for _, d := range []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1} {
		f := 1.0
		for g := 1; g <= 5000; g++ {
			f *= 1 - d
			if g%250 == 0 {
				rows = append(rows, fig6Row{Gates: g, Bound: d, F: f})
			}
		}
	}
	return rows, nil
}

var durationType = reflect.TypeOf(time.Duration(0))

// writeCSV writes rows, a slice of structs, to path: a header of the
// `csv` tags in field declaration order, then one record per row.
// Durations are written as seconds and floats through fmtF.
func writeCSV(path string, rows any) error {
	v := reflect.ValueOf(rows)
	t := v.Type().Elem()
	var hdr []string
	var cols []int
	for i := 0; i < t.NumField(); i++ {
		if name := t.Field(i).Tag.Get("csv"); name != "" {
			hdr = append(hdr, name)
			cols = append(cols, i)
		}
	}
	fp, err := os.Create(path)
	if err != nil {
		return err
	}
	// csv.Writer errors are sticky: cw.Error reports any Write failure
	// after the Flush below.
	cw := csv.NewWriter(fp)
	cw.Write(hdr)
	rec := make([]string, len(cols))
	for r := 0; r < v.Len(); r++ {
		for j, i := range cols {
			if rec[j], err = csvCell(v.Index(r).Field(i)); err != nil {
				fp.Close()
				return err
			}
		}
		cw.Write(rec)
	}
	cw.Flush()
	return errors.Join(cw.Error(), fp.Close())
}

func csvCell(f reflect.Value) (string, error) {
	if f.Type() == durationType {
		return fmtF(time.Duration(f.Int()).Seconds()), nil
	}
	switch f.Kind() {
	case reflect.String:
		return f.String(), nil
	case reflect.Bool:
		return strconv.FormatBool(f.Bool()), nil
	case reflect.Int, reflect.Int64:
		return strconv.FormatInt(f.Int(), 10), nil
	case reflect.Float64:
		return fmtF(f.Float()), nil
	}
	return "", fmt.Errorf("harness: no CSV form for a %s column", f.Type())
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
