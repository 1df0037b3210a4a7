let nblocks = 16384
let block_size = 8192
let ninodes = 8192
