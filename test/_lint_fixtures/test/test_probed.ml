let () = assert (Probed.only_tested + Probed.seam = 3)
