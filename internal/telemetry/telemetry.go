// Package telemetry is the HTTP face of the monitoring stack: a small
// registry of metric sources rendered in the Prometheus text exposition
// format under /metrics, with net/http/pprof mounted under
// /debug/pprof. It complements the IMA virtual tables — the same
// counters queryable over SQL are scrapeable by standard tooling — and
// stays stdlib-only like the rest of the reproduction.
package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Kind distinguishes Prometheus metric types.
type Kind uint8

// Metric kinds. Histogram series are emitted by sources as explicit
// *_bucket/*_sum/*_count samples (see HistogramMetrics).
const (
	Counter Kind = iota
	Gauge
)

func (k Kind) String() string {
	if k == Gauge {
		return "gauge"
	}
	return "counter"
}

// Label is one Prometheus label pair.
type Label struct{ Key, Value string }

// Metric is a single sample.
type Metric struct {
	Name   string // full metric name, e.g. "daemon_polls_total"
	Help   string
	Kind   Kind
	Value  float64
	Labels []Label
}

// Source produces the current samples of one component. Sources must
// be safe for concurrent invocation.
type Source func() []Metric

// Sample is a gathered metric tagged with its component.
type Sample struct {
	Component string
	Metric
}

// Registry holds named metric sources. The zero value is not usable;
// call NewRegistry.
type Registry struct {
	mu      sync.RWMutex
	order   []string
	sources map[string]Source
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sources: map[string]Source{}}
}

// Register adds a component's source. Registering the same component
// twice is an error (it would double-report every sample).
func (r *Registry) Register(component string, src Source) error {
	if src == nil {
		return fmt.Errorf("telemetry: nil source for %q", component)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.sources[component]; dup {
		return fmt.Errorf("telemetry: component %q already registered", component)
	}
	r.sources[component] = src
	r.order = append(r.order, component)
	return nil
}

// Gather invokes every source and returns the flattened samples in
// registration order.
func (r *Registry) Gather() []Sample {
	r.mu.RLock()
	order := append([]string(nil), r.order...)
	sources := make([]Source, len(order))
	for i, c := range order {
		sources[i] = r.sources[c]
	}
	r.mu.RUnlock()
	var out []Sample
	for i, src := range sources {
		for _, m := range src() {
			out = append(out, Sample{Component: order[i], Metric: m})
		}
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): one # HELP and # TYPE comment per
// metric name followed by its samples.
func (r *Registry) WritePrometheus(w io.Writer) error {
	samples := r.Gather()
	// Samples of one name must be contiguous and announced once.
	seen := map[string]bool{}
	var names []string
	byName := map[string][]Sample{}
	for _, s := range samples {
		if !seen[s.Name] {
			seen[s.Name] = true
			names = append(names, s.Name)
		}
		byName[s.Name] = append(byName[s.Name], s)
	}
	for _, name := range names {
		group := byName[name]
		help := group[0].Help
		if help == "" {
			help = name
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			name, escapeHelp(help), name, group[0].Kind); err != nil {
			return err
		}
		for _, s := range group {
			if _, err := fmt.Fprintf(w, "%s%s %s\n",
				name, formatLabels(s.Labels), formatValue(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

func formatLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
