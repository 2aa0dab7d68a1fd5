package engine

// ForEachSweepArm exposes forEachArm to the external test package, so
// the kerneltest-backed differential runs under every sweep arm.
var ForEachSweepArm = forEachArm
