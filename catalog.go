// Package shotgun carries the paper's experiment catalog: the sweep
// specs under specs/, one per reproduced table or figure, embedded so
// internal/spec can compile them into the evaluation without reading
// the working tree.
package shotgun

import "embed"

// Specs holds specs/*.json. internal/spec.Catalog compiles it.
//
//go:embed specs/*.json
var Specs embed.FS
