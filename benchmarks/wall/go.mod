module bulletfs/benchmarks/wall

go 1.22

require bulletfs v0.0.0

replace bulletfs => ../..
