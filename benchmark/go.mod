module probdb/benchmark

go 1.22

require probdb v0.0.0

replace probdb => ../
