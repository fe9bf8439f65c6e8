//go:build !race

// Package race reports whether the race detector is compiled in, as the
// standard library's internal/race does. The detector instruments memory
// accesses and allocates on its own account, so allocation budgets
// (testing.AllocsPerRun gates) hold only in builds without it; those
// gates skip when Enabled is set and are enforced by the plain test run.
package race

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
