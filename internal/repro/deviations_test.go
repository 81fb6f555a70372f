package repro

import (
	"context"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"nanometer/internal/device"
	"nanometer/internal/result"
	"nanometer/internal/runner"
	"nanometer/internal/scenario"
)

// baseResults computes the base registry, keyed by artifact ID.
func baseResults(t *testing.T) map[string]*result.Result {
	t.Helper()
	results, err := ComputeAllCtx(context.Background(), runner.Pool{}, Artifacts(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]*result.Result{}
	for _, res := range results {
		byID[res.ID] = res
	}
	return byID
}

// TestKnownDeviations computes the base registry and checks that the set
// of failing paper checks is exactly the paper table's rows that carry a
// deviation: a new failure fails this test, and so does a silent fix of a
// listed one.
func TestKnownDeviations(t *testing.T) {
	var failing, known []string
	for id, res := range baseResults(t) {
		for _, f := range res.FailedChecks() {
			failing = append(failing, id+"/"+f.Key)
		}
	}
	for _, r := range paperChecks {
		if r.deviation != "" {
			known = append(known, r.artifact+"/"+r.Check)
		}
	}
	sort.Strings(failing)
	sort.Strings(known)
	if got, want := strings.Join(failing, " "), strings.Join(known, " "); got != want {
		t.Errorf("failing paper checks [%s], want exactly the known deviations [%s]", got, want)
	}
}

// TestExperimentsVerdictsMatchPaperTable: the artifact sections of
// EXPERIMENTS.md that hold a **fail** verdict are exactly the artifacts of
// the paper table's deviation rows, so a fixed deviation left marked fail
// breaks it, and so does a new fail the table does not list.
func TestExperimentsVerdictsMatchPaperTable(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	// Artifact sections open "## Table 1", "## Figure 3" or "## C8".
	heading := regexp.MustCompile(`^## (?:(T)able |(F)igure |(C))(\d+)\b`)
	var failing []string
	id := ""
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "## ") {
			id = ""
			if m := heading.FindStringSubmatch(line); m != nil {
				id = strings.ToLower(m[1]+m[2]+m[3]) + m[4]
				if _, err := Select([]string{id}); err != nil {
					t.Errorf("EXPERIMENTS.md section %q names no artifact: %v", line, err)
				}
			}
		}
		if id != "" && strings.Contains(line, "**fail**") && !slices.Contains(failing, id) {
			failing = append(failing, id)
		}
	}
	var deviations []string
	for _, r := range paperChecks {
		if r.deviation != "" && !slices.Contains(deviations, r.artifact) {
			deviations = append(deviations, r.artifact)
		}
	}
	sort.Strings(failing)
	sort.Strings(deviations)
	if !slices.Equal(failing, deviations) {
		t.Errorf("EXPERIMENTS.md marks %v fail, the paper table lists deviations on %v", failing, deviations)
	}
}

// TestPaperTableNamesFindings: the paper table checks each finding at most
// once, every row lands as a check on a finding its artifact produces, and
// within each checked
// artifact finding keys are unique, so matching by key attaches each row
// to exactly one finding. A row whose key matches no finding fails the
// artifact's compute (pinned on c7 with a misspelt key).
func TestPaperTableNamesFindings(t *testing.T) {
	// No (artifact, check) pair is listed twice: a second row would
	// silently override the first.
	rows := map[[2]string]bool{}
	for _, r := range paperChecks {
		k := [2]string{r.artifact, r.Check}
		if rows[k] {
			t.Errorf("paper table lists %s/%s twice", r.artifact, r.Check)
		}
		rows[k] = true
	}
	byID := baseResults(t)
	for _, r := range paperChecks {
		res := byID[r.artifact]
		if res == nil {
			t.Errorf("paper table row %s/%s names no artifact", r.artifact, r.Check)
			continue
		}
		var checked []result.Finding
		for _, it := range res.Items {
			if it.Claim == nil {
				continue
			}
			for _, f := range it.Claim.Findings {
				if f.Key == r.Check {
					checked = append(checked, f)
				}
			}
		}
		if len(checked) != 1 || checked[0].Check == nil ||
			checked[0].Check.Paper != r.Value || checked[0].Check.RelTol != r.RelTol {
			t.Errorf("row %s/%s: findings %+v, want one carrying the row's check", r.artifact, r.Check, checked)
		}
	}
	for id := range paperExpect {
		var keys []string
		for _, it := range byID[id].Items {
			if it.Claim != nil {
				for _, f := range it.Claim.Findings {
					keys = append(keys, f.Key)
				}
			}
		}
		sort.Strings(keys)
		if n := len(slices.Compact(keys)); n != len(keys) {
			t.Errorf("%s: %d findings share a key with another", id, len(keys)-n)
		}
	}
	arts, err := Select([]string{"c7"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := arts[0].Compute(device.BaseLab(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.ApplyChecks([]result.Expect{{Check: "vdd_flor", Value: 0.44, RelTol: 0.1}}); err == nil {
		t.Error("a check naming no finding applied without error")
	}
}

// TestBaseKeyCoversPaperTable: the base compute key folds in the paper
// table, so two tables differing in one value key apart, while a
// scenario's key is its own document's and ignores the table.
func TestBaseKeyCoversPaperTable(t *testing.T) {
	edited := slices.Clone(paperChecks)
	edited[0].Value *= 1.01
	prefix := func(rows []paperCheck) string {
		_, digest := groupPaper(rows)
		return keyVersion + "\x00paper=" + digest
	}
	var base Options
	if base.keyWith(prefix(edited)) == base.computeKey() {
		t.Error("editing a paper value left the base compute key unchanged")
	}
	if base.keyWith(prefix(slices.Clone(paperChecks))) != base.computeKey() {
		t.Error("the base compute key is not the paper table's")
	}
	s := Options{Scenario: scenario.MustParse(`{"name":"a"}`)}
	if s.keyWith(prefix(edited)) != s.computeKey() {
		t.Error("a scenario's compute key depends on the paper table")
	}
}
