package core

import (
	"bytes"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/ml/metrics"
	"repro/internal/ml/modelsel"
	"repro/internal/persist"
)

// testStudy is a shared, scaled-down study fixture (small FIFOs, few
// packets, light injection budget) so the full flow stays fast in tests.
var testStudy struct {
	once  sync.Once
	study *Study
	err   error
}

func smallStudy(t testing.TB) *Study {
	t.Helper()
	testStudy.once.Do(func() {
		cfg := StudyConfig{
			MAC: circuit.MACConfig{FIFODepth: 16, StatWidth: 8, TargetFFs: 0},
			Bench: circuit.MACBenchConfig{
				Packets: 6, MinPayload: 4, MaxPayload: 6, Gap: 10,
				DrainCycles: 40, Seed: 5, FIFODepth: 16,
			},
			InjectionsPerFF: 8,
			CampaignSeed:    1,
		}
		testStudy.study, testStudy.err = NewStudy(cfg)
		if testStudy.err == nil {
			_, testStudy.err = testStudy.study.RunGroundTruth()
		}
	})
	if testStudy.err != nil {
		t.Fatalf("fixture: %v", testStudy.err)
	}
	return testStudy.study
}

// groupColumns lists the columns of the given feature groups, in schema
// order.
func groupColumns(keep ...features.Group) []int {
	var cols []int
	for j, g := range features.Groups() {
		if slices.Contains(keep, g) {
			cols = append(cols, j)
		}
	}
	return cols
}

// ablationRows is k-NN under the Table I protocol on six feature-group
// subsets, the rows TestFeatureVariantGoldenBits pins.
func ablationRows(t *testing.T, s *Study, seed int64) []TableRow {
	t.Helper()
	S, Y, D := features.GroupStructural, features.GroupSynthesis, features.GroupDynamic
	cases := []struct {
		name string
		keep []features.Group
	}{
		{"all features", []features.Group{S, Y, D}},
		{"structural only", []features.Group{S}},
		{"synthesis only", []features.Group{Y}},
		{"dynamic only", []features.Group{D}},
		{"w/o dynamic", []features.Group{S, Y}},
		{"w/o structural", []features.Group{Y, D}},
	}
	var specs []ModelSpec
	for _, c := range cases {
		specs = append(specs, ColumnsModel(c.name, PaperModels()[1], groupColumns(c.keep...)))
	}
	rows, err := s.Table1(specs, PaperCVSplits, PaperTrainFrac, seed)
	if err != nil {
		t.Fatalf("ablation: %v", err)
	}
	return rows
}

// pcaR2s is the test R² of k-NN behind standardization and a PCA keeping
// each of ks components.
func pcaR2s(t *testing.T, s *Study, ks []int, nSplits int, seed int64) []float64 {
	t.Helper()
	specs := make([]ModelSpec, len(ks))
	for i, k := range ks {
		specs[i] = PCAModel(PaperModels()[1], k)
	}
	rows, err := s.Table1(specs, nSplits, PaperTrainFrac, seed)
	if err != nil {
		t.Fatalf("PCA rows: %v", err)
	}
	r2s := make([]float64, len(rows))
	for i, r := range rows {
		r2s[i] = r.R2
	}
	return r2s
}

func TestStudyConstruction(t *testing.T) {
	s := smallStudy(t)
	if s.NumFFs() < 300 {
		t.Fatalf("unexpectedly small study: %d FFs", s.NumFFs())
	}
	if len(s.Features.Rows) != s.NumFFs() {
		t.Fatalf("feature rows %d != FFs %d", len(s.Features.Rows), s.NumFFs())
	}
	if len(s.Activity.Ones) != s.NumFFs() {
		t.Fatal("activity shape wrong")
	}
	y, err := s.FDR()
	if err != nil {
		t.Fatalf("FDR: %v", err)
	}
	if len(y) != s.NumFFs() {
		t.Fatal("FDR shape wrong")
	}
}

func TestGroundTruthIdempotent(t *testing.T) {
	s := smallStudy(t)
	a, err := s.RunGroundTruth()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.RunGroundTruth()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("RunGroundTruth must cache its result")
	}
}

func TestPartialCampaignMatchesFull(t *testing.T) {
	s := smallStudy(t)
	full, _ := s.RunGroundTruth()
	subset := []int{0, 5, 17, 42}
	part, err := s.RunPartialCampaign(subset)
	if err != nil {
		t.Fatalf("RunPartialCampaign: %v", err)
	}
	for _, ff := range subset {
		if part.FDR[ff] != full.FDR[ff] {
			t.Fatalf("FF %d: partial %v != full %v (same plan and seed)",
				ff, part.FDR[ff], full.FDR[ff])
		}
		if part.Injections[ff] != s.Config.InjectionsPerFF {
			t.Fatalf("FF %d injections %d", ff, part.Injections[ff])
		}
	}
	// Untouched FFs have no injections.
	if part.Injections[1] != 0 {
		t.Fatal("partial campaign leaked to unselected FFs")
	}
}

func TestTable1ShapeMatchesPaper(t *testing.T) {
	s := smallStudy(t)
	rows, err := s.Table1(PaperModels(), 4, PaperTrainFrac, 3)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	lls, knn, svr := rows[0], rows[1], rows[2]
	if lls.Model != "Linear Least Squares" || knn.Model != "k-NN" || svr.Model != "SVR w/ RBF Kernel" {
		t.Fatalf("row order wrong: %v %v %v", lls.Model, knn.Model, svr.Model)
	}
	// The paper's headline: the linear model is rated worst on R².
	if lls.R2 >= knn.R2 || lls.R2 >= svr.R2 {
		t.Fatalf("linear model must lose: LLS=%.3f kNN=%.3f SVR=%.3f", lls.R2, knn.R2, svr.R2)
	}
	// And the non-linear models do well in absolute terms.
	if knn.R2 < 0.6 || svr.R2 < 0.6 {
		t.Fatalf("non-linear models too weak: kNN=%.3f SVR=%.3f", knn.R2, svr.R2)
	}
	for _, r := range rows {
		if r.MAE < 0 || r.RMSE < r.MAE-1e-9 || r.MAX < r.MAE-1e-9 {
			t.Fatalf("inconsistent metrics: %+v", r)
		}
	}
}

func TestEstimateFDRFlow(t *testing.T) {
	s := smallStudy(t)
	est, err := s.EstimateFDR(KNNModel, 0.5, 9)
	if err != nil {
		t.Fatalf("EstimateFDR: %v", err)
	}
	n := s.NumFFs()
	if len(est.TrainIdx)+len(est.TestIdx) != n {
		t.Fatal("split must cover all FFs")
	}
	frac := float64(len(est.TrainIdx)) / float64(n)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("train fraction %v far from 0.5", frac)
	}
	if len(est.TestPred) != len(est.TestTrue) {
		t.Fatal("prediction shape wrong")
	}
	for _, p := range est.TestPred {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatal("non-finite prediction")
		}
	}
}

// TestEstimateFoldScores: the Fig. 2a/3a/4a fold is EstimateFDR at the
// paper's training size, scored per partition.
func TestEstimateFoldScores(t *testing.T) {
	s := smallStudy(t)
	est, err := s.EstimateFDR(PaperModels()[1].Factory, PaperTrainFrac, 2)
	if err != nil {
		t.Fatalf("EstimateFDR: %v", err)
	}
	trainScores := metrics.Evaluate(est.TrainTrue, est.TrainPred)
	testScores := metrics.Evaluate(est.TestTrue, est.TestPred)
	if trainScores.R2 < testScores.R2-0.05 {
		t.Fatalf("k-NN train score (%v) should not trail test (%v)", trainScores.R2, testScores.R2)
	}
	var buf bytes.Buffer
	if err := RenderFold(&buf, "k-NN", est); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty rendering")
	}
}

func TestLearningCurvePlateau(t *testing.T) {
	s := smallStudy(t)
	points, err := s.LearningCurve(PaperModels()[1], []float64{0.1, 0.3, 0.5, 0.9}, 4, 3)
	if err != nil {
		t.Fatalf("LearningCurve: %v", err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	// The paper's conclusion: performance does not improve much past 50 %.
	last, mid := points[3], points[2]
	if mid.TestScore < last.TestScore-0.15 {
		t.Fatalf("no plateau: 50%%=%v vs 90%%=%v", mid.TestScore, last.TestScore)
	}
	var buf bytes.Buffer
	if err := RenderLearningCurve(&buf, "k-NN", points); err != nil {
		t.Fatal(err)
	}
}

// TestFeatureGroupModelKeepsColumns: a column-keeping variant's front end
// passes the model exactly the columns it keeps, in schema order — a feature
// group, the whole vector, the -exp features row without one column and the
// one without the prox_* family.
func TestFeatureGroupModelKeepsColumns(t *testing.T) {
	s := smallStudy(t)
	X := s.FeatureRows()
	names := features.Names()
	variants := FeatureVariants(PaperModels()[1])
	variant := func(name string) ModelSpec {
		i := slices.IndexFunc(variants, func(v ModelSpec) bool { return v.Name == name })
		if i < 0 {
			t.Fatalf("FeatureVariants has no %q row", name)
		}
		return variants[i]
	}
	withoutConst := slices.DeleteFunc(slices.Clone(names), func(n string) bool { return n == "conn_const" })
	for _, c := range []struct {
		spec ModelSpec
		keep []string
	}{
		{ColumnsModel("dynamic only", PaperModels()[1], groupColumns(features.GroupDynamic)),
			[]string{"at0", "at1", "state_changes"}},
		{variant("all features"), names},
		{variant("w/o conn_const"), withoutConst},
		{variant("w/o prox_*"), []string{
			"ff_fan_in", "ff_fan_out", "total_ffs_from", "total_ffs_to",
			"conn_from_pi", "conn_to_po",
			"part_of_bus", "bus_position", "bus_length",
			"conn_const", "has_feedback", "feedback_depth",
			"drive_strength", "comb_fan_in", "comb_fan_out", "comb_depth",
			"at0", "at1", "state_changes",
		}},
	} {
		pipe := c.spec.Factory().(*ml.Pipeline)
		if err := pipe.Scaler.Fit(X); err != nil {
			t.Fatal(err)
		}
		front := pipe.Scaler.Transform(X)
		if len(front) != s.NumFFs() || len(front[0]) != len(c.keep) {
			t.Fatalf("%s: front end is %dx%d, want %dx%d", c.spec.Name, len(front), len(front[0]), s.NumFFs(), len(c.keep))
		}
		for k, name := range c.keep {
			j := slices.Index(names, name)
			for i, row := range front {
				if row[k] != X[i][j] {
					t.Fatalf("%s: row %d column %d is %v, feature %s is %v", c.spec.Name, i, k, row[k], name, X[i][j])
				}
			}
		}
	}
}

// TestTable1FeatureGroupRow: one ablation row is a Table I row of the
// variant, under the variant's name.
func TestTable1FeatureGroupRow(t *testing.T) {
	s := smallStudy(t)
	spec := ColumnsModel("structural only", PaperModels()[1], groupColumns(features.GroupStructural))
	rows, err := s.Table1([]ModelSpec{spec}, 3, 0.5, 4)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if row := rows[0]; row.Model != "structural only" || row.R2 <= -1 || row.R2 > 1 {
		t.Fatalf("ablation row %q, R² %v", row.Model, row.R2)
	}
}

// TestFitArtifact: the artifact train -save and corpus -sweep -out persist
// is the spec refitted on every flip-flop, fingerprinted over exactly that
// data and tagged with the study's scenario and the CV row it was given.
func TestFitArtifact(t *testing.T) {
	s := smallStudy(t)
	spec := PaperModels()[1]
	rows, err := s.Table1([]ModelSpec{spec}, 3, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	art, err := s.FitArtifact(spec.Name+"@"+s.ScenarioID(), spec, rows[0])
	if err != nil {
		t.Fatal(err)
	}
	X := s.FeatureRows()
	y, _ := s.FDR()
	if art.Name != "k-NN@"+s.ScenarioID() || art.Kind == "" || art.Circuit != "mac10ge" || art.Workload != "loopback" {
		t.Errorf("artifact identity: %q kind %q tagged %s/%s", art.Name, art.Kind, art.Circuit, art.Workload)
	}
	if art.TrainRows != len(X) || art.TrainHash != persist.DataFingerprint(X, y) || art.NumFeatures() != features.NumFeatures {
		t.Errorf("artifact provenance: %d rows, hash %x, %d features", art.TrainRows, art.TrainHash, art.NumFeatures())
	}
	if art.Metrics["cv_r2"] != rows[0].R2 || art.Metrics["cv_mae"] != rows[0].MAE || len(art.Metrics) != 5 {
		t.Errorf("artifact metrics %v, CV row %+v", art.Metrics, rows[0])
	}
	want := spec.Factory()
	if err := want.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		if got := art.Model.Predict(x); got != want.Predict(x) {
			t.Fatalf("row %d: artifact predicts %v, a fit on every flip-flop predicts %v", i, got, want.Predict(x))
		}
	}
	if _, err := (&Study{Materialized: s.Materialized}).FitArtifact("x", spec, rows[0]); err == nil {
		t.Error("a study without ground truth produced an artifact")
	}
}

func TestTuneModel(t *testing.T) {
	s := smallStudy(t)
	spec := PaperModels()[1] // k-NN
	out, err := s.TuneModel(spec, 4, 5)
	if err != nil {
		t.Fatalf("TuneModel: %v", err)
	}
	if out.Random.Evaluated != 4 {
		t.Fatalf("random evaluated %d", out.Random.Evaluated)
	}
	if out.Grid.BestScore < out.Random.BestScore-1e-9 {
		t.Fatalf("grid refinement must not regress: %v < %v",
			out.Grid.BestScore, out.Random.BestScore)
	}
	k := out.Grid.Best["k"]
	if k < 1 || k > 20 {
		t.Fatalf("tuned k = %v out of space", k)
	}
	// The linear model has no hyperparameters.
	if _, err := s.TuneModel(PaperModels()[0], 2, 1); err == nil {
		t.Fatal("tuning a non-tunable model must fail")
	}
}

// k-NN's Scorer shares one scaler fit, one training set and one distance
// scan per test row among a stage's k; each score must still be the bits of
// a cross-validation of its own, repeated and extreme k included.
func TestKNNScoresMatchCrossValidation(t *testing.T) {
	s := smallStudy(t)
	y, err := s.FDR()
	if err != nil {
		t.Fatal(err)
	}
	splits, err := ml.StratifiedShuffleSplits(y, 3, PaperTrainFrac, PaperStratifyBins, 2)
	if err != nil {
		t.Fatal(err)
	}
	var ps []modelsel.Params
	for _, k := range []float64{7, 1, 20, 3, 7, float64(len(splits[0].Train))} {
		ps = append(ps, modelsel.Params{"k": k})
	}
	spec := PaperModels()[1].Tunable
	got, err := spec.Score(ps, s.FeatureRows(), y, splits)
	if err != nil {
		t.Fatal(err)
	}
	want, err := modelsel.CrossValidated(spec.Build)(ps, s.FeatureRows(), y, splits)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("k=%v: mean R² %x, cross-validating it alone gives %x", ps[i]["k"], got[i], want[i])
		}
	}
	tooMany := []modelsel.Params{{"k": 3}, {"k": float64(len(splits[0].Train) + 1)}}
	if _, err := spec.Score(tooMany, s.FeatureRows(), y, splits); err == nil {
		t.Error("a k above the training set's size was scored")
	}
}

// TestTable1PCARows: the dimensionality-reduction sweep is Table I over
// PCA variants, one row per kept dimensionality.
func TestTable1PCARows(t *testing.T) {
	s := smallStudy(t)
	rows, err := s.Table1([]ModelSpec{PCAModel(PaperModels()[1], 3), PCAModel(PaperModels()[1], 10)}, 2, PaperTrainFrac, 4)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.R2 > 1 {
			t.Fatalf("R² out of range: %+v", r)
		}
	}
	// More components should not be dramatically worse.
	if rows[1].R2 < rows[0].R2-0.3 {
		t.Fatalf("PCA rows implausible: %+v", rows)
	}
}

func TestRenderers(t *testing.T) {
	s := smallStudy(t)
	res, _ := s.RunGroundTruth()
	var buf bytes.Buffer
	if err := RenderCampaign(&buf, res); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 100 {
		t.Fatal("campaign rendering too short")
	}
	rows, err := s.Table1(PaperModels()[:1], 2, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := RenderTable1(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("Linear Least Squares")) {
		t.Fatal("table missing model row")
	}
}

func TestFindModel(t *testing.T) {
	if _, err := FindModel("k-NN"); err != nil {
		t.Fatalf("FindModel: %v", err)
	}
	if _, err := FindModel("Gradient Boosting"); err != nil {
		t.Fatalf("FindModel extended: %v", err)
	}
	if _, err := FindModel("nope"); err == nil {
		t.Fatal("unknown model must fail")
	}
}

func TestFDRBeforeGroundTruth(t *testing.T) {
	cfg := StudyConfig{
		MAC: circuit.MACConfig{FIFODepth: 8, StatWidth: 8},
		Bench: circuit.MACBenchConfig{
			Packets: 1, MinPayload: 2, MaxPayload: 2, Gap: 8,
			DrainCycles: 30, Seed: 1, FIFODepth: 8,
		},
		InjectionsPerFF: 1,
	}
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatalf("NewStudy: %v", err)
	}
	if _, err := s.FDR(); err == nil {
		t.Fatal("FDR before RunGroundTruth must fail")
	}
	if _, err := s.EstimateFDR(KNNModel, 0.5, 1); err == nil {
		t.Fatal("EstimateFDR before ground truth must fail")
	}
}
