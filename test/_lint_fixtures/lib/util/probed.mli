(* dead-export: a reference from test/ does not count, so a val that only
   a test calls fires; a pragma'd test seam does not. *)
val only_tested : int
(* lint: allow dead-export — test seam: test/test_probed.ml reads it *)
val seam : int
