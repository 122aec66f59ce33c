package obs

import "log/slog"

// Component scopes an optional logger to one component ("coord", "campaign",
// ...): every record carries component=name. A nil logger means silent — the
// result discards everything — so components take one optionally and log
// unguarded.
func Component(l *slog.Logger, name string) *slog.Logger {
	if l == nil {
		return slog.New(slog.DiscardHandler)
	}
	return l.With("component", name)
}
