package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ml"
	"repro/internal/plan"
	"repro/internal/table"
)

const customersCSV = `CustomerID,Churn,Age,EmployerID
c1,1,34,e2
c2,-1,29,e1
c3,1,41,e2
c4,-1,55,e3
c5,1,23,e1
c6,-1,37,e2
`

const employersCSV = `EmployerID,Revenue,Country
e1,12.5,US
e2,88.0,DE
e3,7.25,US
`

// writeCSVs writes the named CSV bodies into a fresh directory and returns
// their paths, in order.
func writeCSVs(t *testing.T, files ...[2]string) []string {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	for _, f := range files {
		p := filepath.Join(dir, f[0])
		if err := os.WriteFile(p, []byte(f[1]), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return paths
}

// TestTrainLogRegMatchesInProcess: logreg over one attribute table prints
// the plan and exactly the weights in-process training gets from the same
// tables through the same planner.
func TestTrainLogRegMatchesInProcess(t *testing.T) {
	p := writeCSVs(t, [2]string{"customers.csv", customersCSV}, [2]string{"employers.csv", employersCSV})
	var out, errOut bytes.Buffer
	err := run([]string{
		"-entity", p[0], "-keys", "CustomerID", "-target", "Churn", "-features", "Age",
		"-attr", p[1] + ":EmployerID:EmployerID:Revenue,Country@Country",
		"-model", "logreg", "-iters", "10", "-step", "1e-3",
	}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}

	s, err := table.ReadCSV("Entity", strings.NewReader(customersCSV),
		map[string]table.ColumnKind{"CustomerID": table.Key, "EmployerID": table.Key})
	if err != nil {
		t.Fatal(err)
	}
	r, err := table.ReadCSV("employers", strings.NewReader(employersCSV),
		map[string]table.ColumnKind{"EmployerID": table.Key, "Country": table.Categorical})
	if err != nil {
		t.Fatal(err)
	}
	nm, y, feats, err := table.Build(table.JoinSpec{
		Entity: s, EntityFeatures: []string{"Age"}, Target: "Churn",
		Attributes: []table.AttributeRef{{Table: r, PrimaryKey: "EmployerID", ForeignKey: "EmployerID", Features: []string{"Revenue", "Country"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	operand, dec := plan.Choose(plan.OpGLM, plan.Env{}, nm)
	w, err := ml.LogisticRegressionGD(operand, y, nil, ml.Options{Iters: 10, StepSize: 1e-3})
	if err != nil {
		t.Fatal(err)
	}

	got := out.String()
	// The plan line ends in its planning time, which differs run to run.
	planLine := "plan: " + dec.String()
	planLine = planLine[:strings.LastIndex(planLine, " (")]
	if !strings.Contains(got, planLine+" (") {
		t.Fatalf("output lacks the plan line %q:\n%s", planLine, got)
	}
	var want strings.Builder
	want.WriteString("\nweights:\n")
	for i, f := range feats {
		fmt.Fprintf(&want, "  %-30s %+.6f\n", f, w.At(i, 0))
	}
	if !strings.HasSuffix(got, want.String()) {
		t.Fatalf("weights differ from in-process training:\ngot\n%s\nwant suffix\n%s", got, want.String())
	}
}

// TestTrainBadInputsAreOneLineErrors: each malformed invocation or input
// file is an error of one line naming the fault, never a result.
func TestTrainBadInputsAreOneLineErrors(t *testing.T) {
	p := writeCSVs(t,
		[2]string{"customers.csv", customersCSV},
		[2]string{"employers.csv", employersCSV},
		[2]string{"dangling.csv", customersCSV + "c7,1,30,e9\n"},
		[2]string{"empty.csv", "CustomerID,Churn,Age,EmployerID\n"},
	)
	attr := p[1] + ":EmployerID:EmployerID:Revenue,Country@Country"
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"missing entity", []string{"-target", "Churn"}, "need -entity and -target"},
		{"malformed attr", []string{"-entity", p[0], "-target", "Churn", "-attr", p[1] + ":EmployerID"}, "bad -attr"},
		{"dangling fk", []string{"-entity", p[2], "-keys", "CustomerID", "-target", "Churn", "-features", "Age", "-attr", attr}, "building normalized matrix"},
		{"unknown model", []string{"-entity", p[0], "-keys", "CustomerID", "-target", "Churn", "-features", "Age", "-attr", attr, "-model", "svm"}, `unknown -model "svm"`},
		{"zero rows", []string{"-entity", p[3], "-keys", "CustomerID", "-target", "Churn", "-features", "Age", "-attr", attr}, "has no rows"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			err := run(tc.args, &out, &errOut)
			if err == nil {
				t.Fatalf("accepted; stdout:\n%s", out.String())
			}
			if msg := err.Error(); !strings.Contains(msg, tc.want) || strings.Contains(msg, "\n") {
				t.Fatalf("error %q, want one line containing %q", msg, tc.want)
			}
		})
	}
}
