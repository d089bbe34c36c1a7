// Command morpheus-train fits a model over normalized CSV base tables
// without materializing the join.
//
// Usage:
//
//	morpheus-train -entity orders.csv -keys OrderID -target Late -features Qty,Weight \
//	    -attr "warehouses.csv:WarehouseID:WarehouseID:Capacity,Region@Region" \
//	    -model logreg -iters 200 -step 1e-4
//
// Each -attr flag wires one attribute table as
// "file:primaryKey:foreignKey:features[@categoricalCols]". Models: logreg
// (±1 target), linreg (numeric target), ridge (with -lambda). Training runs
// through the plan.Plan seam: the planner reads the join's structural facts
// (tuple/feature ratios, redundancy) and picks the factorized or
// materialized operand; the tool prints the explained Decision and the
// per-feature weights.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/la"
	"repro/internal/ml"
	"repro/internal/plan"
	"repro/internal/table"
)

type attrFlag struct{ specs []string }

// attrRef is one parsed -attr flag.
type attrRef struct {
	path, pk, fk string
	feats, cats  []string
}

func (a *attrFlag) String() string { return strings.Join(a.specs, ";") }
func (a *attrFlag) Set(v string) error {
	a.specs = append(a.specs, v)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "morpheus-train: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("morpheus-train", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		entityPath = fs.String("entity", "", "entity (fact) table CSV path")
		target     = fs.String("target", "", "target column in the entity table")
		features   = fs.String("features", "", "comma-separated entity feature columns")
		catCols    = fs.String("categorical", "", "comma-separated categorical entity columns")
		keyCols    = fs.String("keys", "", "comma-separated entity key columns (e.g. the primary key)")
		model      = fs.String("model", "logreg", "model: logreg | linreg | ridge")
		iters      = fs.Int("iters", 100, "gradient-descent iterations")
		step       = fs.Float64("step", 1e-4, "gradient-descent step size")
		lambda     = fs.Float64("lambda", 1.0, "ridge regularization strength")
		attrs      attrFlag
	)
	fs.Var(&attrs, "attr", "attribute table: file:pk:fk:features[@categoricalCols] (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *entityPath == "" || *target == "" {
		return errors.New("need -entity and -target (see -h)")
	}

	spec := table.JoinSpec{Target: *target}
	entityKinds := map[string]table.ColumnKind{}
	for _, c := range splitList(*catCols) {
		entityKinds[c] = table.Categorical
	}
	for _, c := range splitList(*keyCols) {
		entityKinds[c] = table.Key
	}
	var attrRefs []attrRef
	for _, raw := range attrs.specs {
		parts := strings.SplitN(raw, ":", 4)
		if len(parts) != 4 {
			return fmt.Errorf("bad -attr %q: want file:pk:fk:features[@categoricalCols]", raw)
		}
		featsAndCats := strings.SplitN(parts[3], "@", 2)
		ref := attrRef{path: parts[0], pk: parts[1], fk: parts[2], feats: splitList(featsAndCats[0])}
		if len(featsAndCats) == 2 {
			ref.cats = splitList(featsAndCats[1])
		}
		entityKinds[ref.fk] = table.Key
		attrRefs = append(attrRefs, ref)
	}

	entity, err := readTable("Entity", *entityPath, entityKinds)
	if err != nil {
		return err
	}
	if entity.NumRows() == 0 {
		return fmt.Errorf("entity table %s has no rows", *entityPath)
	}
	spec.Entity = entity
	spec.EntityFeatures = splitList(*features)
	for _, ref := range attrRefs {
		kinds := map[string]table.ColumnKind{ref.pk: table.Key}
		for _, c := range ref.cats {
			kinds[c] = table.Categorical
		}
		t, err := readTable(baseName(ref.path), ref.path, kinds)
		if err != nil {
			return err
		}
		spec.Attributes = append(spec.Attributes, table.AttributeRef{Table: t, PrimaryKey: ref.pk, ForeignKey: ref.fk, Features: ref.feats})
	}

	nm, y, featNames, err := table.Build(spec)
	if err != nil {
		return fmt.Errorf("building normalized matrix: %v", err)
	}
	st := nm.ComputeStats()
	fmt.Fprintf(stdout, "normalized matrix: %d rows x %d features over %d attribute table(s)\n",
		nm.Rows(), nm.Cols(), nm.NumTables())
	fmt.Fprintf(stdout, "tuple ratio %.2f, feature ratio %.2f, join redundancy %.2fx\n",
		st.TupleRatio, st.FeatureRatio, st.Redundancy)

	// Every training entry point runs through the planner seam: Plan reads
	// the structural facts above and picks the operand representation; the
	// model trains and predicts on whatever it chose.
	operand, dec := plan.Choose(plan.OpGLM, plan.Env{}, nm)
	fmt.Fprintf(stdout, "plan: %s\n\n", dec)

	var w *la.Dense
	switch *model {
	case "logreg":
		w, err = ml.LogisticRegressionGD(operand, y, nil, ml.Options{Iters: *iters, StepSize: *step})
	case "linreg":
		w, err = ml.LinearRegressionGD(operand, y, nil, ml.Options{Iters: *iters, StepSize: *step})
	case "ridge":
		w, err = ml.RidgeRegression(operand, y, *lambda)
	default:
		return fmt.Errorf("unknown -model %q", *model)
	}
	if err != nil {
		return fmt.Errorf("training: %v", err)
	}
	if *model == "logreg" {
		acc, err := ml.Accuracy(ml.ClassifyLogistic(operand, w), y)
		if err != nil {
			return fmt.Errorf("training accuracy: %v", err)
		}
		fmt.Fprintf(stdout, "logistic regression: training accuracy %.1f%%\n", 100*acc)
	} else {
		rmse, err := ml.RMSE(ml.PredictLinear(operand, w), y)
		if err != nil {
			return fmt.Errorf("training RMSE: %v", err)
		}
		name := "linear regression"
		if *model == "ridge" {
			name = fmt.Sprintf("ridge regression (lambda=%g)", *lambda)
		}
		fmt.Fprintf(stdout, "%s: training RMSE %.4f\n", name, rmse)
	}

	fmt.Fprintln(stdout, "\nweights:")
	for i, f := range featNames {
		fmt.Fprintf(stdout, "  %-30s %+.6f\n", f, w.At(i, 0))
	}
	return nil
}

func readTable(name, path string, kinds map[string]table.ColumnKind) (*table.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening %s: %v", path, err)
	}
	defer f.Close()
	t, err := table.ReadCSV(name, f, kinds)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %v", path, err)
	}
	return t, nil
}

func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func baseName(path string) string {
	b := path
	if i := strings.LastIndexByte(b, '/'); i >= 0 {
		b = b[i+1:]
	}
	return strings.TrimSuffix(b, ".csv")
}
