module ldgemm/benchmark

go 1.24

require ldgemm v0.0.0

replace ldgemm => ../
