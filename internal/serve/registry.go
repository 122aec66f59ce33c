package serve

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/api"
	"repro/internal/persist"
)

// Registry is the model store behind a Server: named artifacts in
// registration order, each optionally tracking the file it was loaded from
// so it can be hot-reloaded in place. Safe for concurrent use; artifacts
// themselves are read-only after registration, so a swap under the lock is
// all a reload needs — in-flight predictions keep the artifact pointer
// they resolved and drain naturally.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*regEntry
	order   []string
}

type regEntry struct {
	art    *persist.Artifact
	source string // artifact file path; "" for in-memory registrations
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*regEntry)}
}

// AddFrom loads an artifact file and registers it with the path recorded
// as its reload source.
func (r *Registry) AddFrom(path string) (*persist.Artifact, error) {
	a, err := persist.Load(path)
	if err != nil {
		return nil, err
	}
	if err := r.add(a, path); err != nil {
		return nil, err
	}
	return a, nil
}

func (r *Registry) add(a *persist.Artifact, source string) error {
	if a == nil || a.Model == nil {
		return fmt.Errorf("serve: nil artifact or model")
	}
	if a.Name == "" || len(a.FeatureNames) == 0 {
		return fmt.Errorf("serve: artifact without name or feature schema")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[a.Name]; dup {
		return fmt.Errorf("serve: model %q already registered", a.Name)
	}
	r.entries[a.Name] = &regEntry{art: a, source: source}
	r.order = append(r.order, a.Name)
	return nil
}

// Get resolves a model by name.
func (r *Registry) Get(name string) (*persist.Artifact, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, false
	}
	return e.art, true
}

// Len reports the registered model count.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Models lists the registered artifacts in registration order as wire
// metadata.
func (r *Registry) Models() []api.ModelInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]api.ModelInfo, 0, len(r.order))
	for _, name := range r.order {
		e := r.entries[name]
		a := e.art
		out = append(out, api.ModelInfo{
			Name:        a.Name,
			Kind:        a.Kind,
			Circuit:     a.Circuit,
			Workload:    a.Workload,
			NumFeatures: a.NumFeatures(),
			Features:    a.FeatureNames,
			TrainRows:   a.TrainRows,
			TrainHash:   strconv.FormatUint(a.TrainHash, 16),
			Metrics:     a.Metrics,
			CreatedAt:   a.CreatedAt,
			Fingerprint: strconv.FormatUint(a.Fingerprint(), 16),
			Source:      e.source,
		})
	}
	return out
}

// Reload re-reads artifacts from their source files and swaps them in
// without draining traffic. An empty names list reloads every file-backed
// model. Each model reports independently: an unknown name, a model with
// no source, a load failure or a renamed artifact fails that entry without
// touching the others. Changed reports whether the swapped artifact
// actually differs (by Fingerprint) from the one it replaced.
func (r *Registry) Reload(names []string) api.ReloadResponse {
	if len(names) == 0 {
		r.mu.RLock()
		for _, name := range r.order {
			if r.entries[name].source != "" {
				names = append(names, name)
			}
		}
		r.mu.RUnlock()
	}
	var resp api.ReloadResponse
	for _, name := range names {
		entry := api.ReloadEntry{Model: name}
		r.mu.RLock()
		e, ok := r.entries[name]
		r.mu.RUnlock()
		switch {
		case !ok:
			entry.Error = fmt.Sprintf("unknown model %q", name)
		case e.source == "":
			entry.Error = "not file-backed; registered in memory"
		default:
			entry.Path = e.source
			a, err := persist.Load(e.source)
			switch {
			case err != nil:
				entry.Error = err.Error()
			case a.Name != name:
				entry.Error = fmt.Sprintf("artifact at %s is now named %q; refusing to swap under %q",
					e.source, a.Name, name)
			default:
				r.mu.Lock()
				entry.Changed = a.Fingerprint() != e.art.Fingerprint()
				e.art = a
				r.mu.Unlock()
				entry.Reloaded = true
				resp.Reloaded++
			}
		}
		resp.Results = append(resp.Results, entry)
	}
	return resp
}
