module ofmf/bench

go 1.22

require ofmf v0.0.0

replace ofmf => ../
