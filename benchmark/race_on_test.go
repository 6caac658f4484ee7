//go:build race

package main

// raceBuild: the twin is race-instrumented and several times slower than
// the uninstrumented child, so the traced pass would (rightly) report that
// the twin is not doing what the server does. The smoke test skips it.
const raceBuild = true
