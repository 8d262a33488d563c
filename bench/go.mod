module github.com/midas-hpc/midas/bench

go 1.22

require github.com/midas-hpc/midas v0.0.0

replace github.com/midas-hpc/midas => ../
