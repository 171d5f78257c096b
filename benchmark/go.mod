// The benchmark is a module of its own so it builds from its own
// directory; the replace lets it import the repository's internal
// packages (the import-path prefix matches, which is what the
// internal rule checks).
module pdagent/benchmark

go 1.22

require pdagent v0.0.0

replace pdagent => ../
