let only_tested = 1
let seam = 2
