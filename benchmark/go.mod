// The benchmark is a module of its own so that building, vetting and
// testing the simulator (go build ./... && go test ./... at the root)
// never compiles or runs it. The module path sits under the root
// module's, which is what lets this package import sturgeon/internal/...
module sturgeon/benchmark

go 1.22

require sturgeon v0.0.0

replace sturgeon => ../
