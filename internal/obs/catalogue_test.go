package obs

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// TestCatalogueWellFormed holds every declared family to the Prometheus
// data model and the repo's naming conventions.
func TestCatalogueWellFormed(t *testing.T) {
	for _, spec := range Catalogue() {
		if !metricNameRE.MatchString(spec.Name) || !strings.HasPrefix(spec.Name, "tactic_") {
			t.Errorf("%q: not a valid tactic_* metric name", spec.Name)
		}
		switch spec.Type {
		case "counter":
			if !strings.HasSuffix(spec.Name, "_total") {
				t.Errorf("counter %s does not end in _total", spec.Name)
			}
		case "gauge", "histogram":
			if strings.HasSuffix(spec.Name, "_total") {
				t.Errorf("%s %s ends in _total", spec.Type, spec.Name)
			}
		default:
			t.Errorf("%s: unknown type %q", spec.Name, spec.Type)
		}
		seen := map[string]bool{}
		for _, key := range spec.Labels {
			if !labelNameRE.MatchString(key) || key == "le" || strings.HasPrefix(key, "__") {
				t.Errorf("%s: invalid or reserved label key %q", spec.Name, key)
			}
			if seen[key] {
				t.Errorf("%s: label key %q declared twice", spec.Name, key)
			}
			seen[key] = true
		}
		if strings.TrimSpace(spec.Help) == "" {
			t.Errorf("%s: empty help text", spec.Name)
		}
	}
}

// TestREADMEListsCatalogue keeps README's metric documentation and the
// catalogue one vocabulary: README names every declared family and no
// tactic_* family the catalogue lacks.
func TestREADMEListsCatalogue(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, name := range regexp.MustCompile(`tactic_[a-z0-9_]*[a-z0-9]`).FindAllString(string(readme), -1) {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok {
				name = base
				break
			}
		}
		named[name] = true
		if _, ok := declared[name]; !ok {
			t.Errorf("README names %s, which the catalogue does not declare", name)
		}
	}
	for _, spec := range Catalogue() {
		if !named[spec.Name] {
			t.Errorf("README omits catalogue family %s", spec.Name)
		}
	}
}
