// The benchmark is a module of its own so that it builds from bench/ alone
// with its own build file; the replace line is how it reaches the packages
// under test without the program under test being edited.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
