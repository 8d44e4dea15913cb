module gomd/bench

go 1.22

require gomd v0.0.0

replace gomd => ../
