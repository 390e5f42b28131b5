// Structured logging setup shared by every binary: one place maps the
// -log-level / -log-format flag strings onto a log/slog logger so the
// cmd/ tools agree on spelling and defaults.
package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// ParseLevel maps a flag string onto a slog.Level. Accepted values are
// debug, info, warn (or warning), and error, case-insensitively; the
// empty string means info.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "info":
		return slog.LevelInfo, nil
	case "debug":
		return slog.LevelDebug, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}

// NewLogger builds a slog.Logger writing to w at the given level.
// format is "json" (one JSON object per line, the daemon default) or
// "text" (slog's key=value form, the interactive default); the empty
// string means text.
func NewLogger(w io.Writer, level slog.Level, format string) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("obs: unknown log format %q (want text|json)", format)
}
