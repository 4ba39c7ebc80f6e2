(* Allocation budgets for the draw -> churn -> flood hot path, measured
   as exact GC word counts on one domain.  The PRNG and the arena scans
   must allocate nothing at all; a Poisson jump may allocate only the
   few words that cross a non-inlined module boundary as boxed floats
   (the dev profile compiles each library opaquely). *)

open Churnet_util
module Poisson_model = Churnet_core.Poisson_model

(* Words allocated by [f ()] on the minor heap plus those allocated
   directly on the major heap, net of the measurement's own cost.  The
   minor collections bracket the region because the runtime credits
   direct major allocations to the counters only at a collection. *)
let words f =
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  f ();
  Gc.minor ();
  let minor1, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

let net_words f = words f -. words (fun () -> ())
let calls = 100_000

let check_zero name f = Alcotest.(check (float 0.)) (name ^ " allocates nothing") 0. (net_words f)

let test_prng_int () =
  let rng = Prng.create 1 in
  check_zero "Prng.int" (fun () ->
      for i = 1 to calls do
        ignore (Prng.int rng i)
      done)

let test_prng_bernoulli () =
  let rng = Prng.create 2 in
  check_zero "Prng.bernoulli" (fun () ->
      for _ = 1 to calls do
        ignore (Prng.bernoulli rng 0.3)
      done)

let test_intvec_mem () =
  let v = Intvec.create () in
  for x = 0 to 15 do
    Intvec.push v x
  done;
  check_zero "Intvec.mem" (fun () ->
      for i = 1 to calls do
        ignore (Intvec.mem v (i land 31))
      done)

let test_intvec_swap_remove_first () =
  let v = Intvec.create ~capacity:calls () in
  for x = 1 to calls do
    Intvec.push v x
  done;
  check_zero "Intvec.swap_remove_first" (fun () ->
      for _ = 1 to calls do
        ignore (Intvec.swap_remove_first v (Intvec.get v 0))
      done);
  Alcotest.(check int) "emptied" 0 (Intvec.length v)

let test_poisson_jump_budget () =
  let n = 10_000 in
  let m = Poisson_model.create ~rng:(Prng.create 3) ~n ~d:4 ~regenerate:true () in
  Poisson_model.warm_up m;
  let jumps = 100_000 in
  let per_jump = net_words (fun () -> Poisson_model.run_rounds m jumps) /. float_of_int jumps in
  if per_jump >= 16. then
    Alcotest.failf "PDGR jump allocates %.2f words (budget 16)" per_jump

(* The overlay kernels on warmed overlays (n = 1500, d = 8): a
   random-walk round (d walks of 2 ceil(log2 n) neighbour picks each)
   and a Bitcoin-like jump (churn, then a repair pass with address
   gossip).  In the dev profile they measure 27.3 words per round and
   92.2 per jump, where the list-based kernels they replaced took 31 037
   and 2 231; each budget sits at least 20x below the old figure.  A
   Bitcoin-like birth still allocates its 64-entry address table. *)
let test_rw_streaming_round_budget () =
  let n = 1_500 in
  let m = Churnet_p2p.Rw_streaming.create ~rng:(Prng.create 4) ~n ~d:8 () in
  Churnet_p2p.Rw_streaming.warm_up m;
  (* A second warm-up is 2n more rounds on the warmed overlay. *)
  let per_round =
    net_words (fun () -> Churnet_p2p.Rw_streaming.warm_up m) /. float_of_int (2 * n)
  in
  if per_round >= 64. then
    Alcotest.failf "random-walk round allocates %.2f words (budget 64)" per_round

let test_bitcoin_like_jump_budget () =
  let m = Churnet_p2p.Bitcoin_like.create ~rng:(Prng.create 5) ~n:1_500 () in
  Churnet_p2p.Bitcoin_like.warm_up m;
  let jumps = 20_000 in
  let per_jump =
    net_words (fun () ->
        for _ = 1 to jumps do
          Churnet_p2p.Bitcoin_like.step m
        done)
    /. float_of_int jumps
  in
  if per_jump >= 110. then
    Alcotest.failf "Bitcoin-like jump allocates %.2f words (budget 110)" per_jump

(* One tail round of each round-based flood driver on a warmed n = 2000
   graph: a discretized round over PDG (d = 2, which never completes, so
   round 31 is deep in the tail) and a synchronous round over SDG
   (d = 2, round 1001).  With a full informed-set scan, an is_alive prune
   pass and an alive-set completion scan, building their closures every
   round, these rounds took 50 and 48 words in the dev profile; each
   budget is that figure.  The frontier rounds take 47 and 32, mostly
   the two log conses and the hook window. *)
let tail_round_words ~rounds ~round st =
  for _ = 1 to rounds do
    round st
  done;
  if Churnet_core.Flood.state_finished st then Alcotest.fail "flood ended before its tail";
  net_words (fun () -> round st)

let test_poisson_round_budget () =
  let module Flood = Churnet_core.Flood in
  let m = Poisson_model.create ~rng:(Prng.create 6) ~n:2_000 ~d:2 ~regenerate:false () in
  Poisson_model.warm_up m;
  let st = Flood.poisson_start ~max_rounds:200 m in
  let w = tail_round_words ~rounds:30 ~round:(Flood.poisson_round m) st in
  if w > 50. then Alcotest.failf "tail poisson_round allocates %.0f words (budget 50)" w

let test_sync_round_budget () =
  let module Flood = Churnet_core.Flood in
  let module Streaming_model = Churnet_core.Streaming_model in
  let m = Streaming_model.create ~rng:(Prng.create 7) ~n:2_000 ~d:2 ~regenerate:false () in
  Streaming_model.warm_up m;
  let graph = Streaming_model.graph m in
  let step () = Streaming_model.step m and newest () = Streaming_model.newest m in
  let st = Flood.sync_start ~max_rounds:8_000 ~graph ~step ~newest in
  let w = tail_round_words ~rounds:1_000 ~round:(Flood.sync_round ~graph ~step ~newest) st in
  if w > 48. then Alcotest.failf "tail sync_round allocates %.0f words (budget 48)" w

let suite =
  [
    ("Prng.int", `Quick, test_prng_int);
    ("Prng.bernoulli", `Quick, test_prng_bernoulli);
    ("Intvec.mem", `Quick, test_intvec_mem);
    ("Intvec.swap_remove_first", `Quick, test_intvec_swap_remove_first);
    ("Poisson jump budget", `Quick, test_poisson_jump_budget);
    ("random-walk round budget", `Quick, test_rw_streaming_round_budget);
    ("Bitcoin-like jump budget", `Quick, test_bitcoin_like_jump_budget);
    ("tail poisson_round budget", `Quick, test_poisson_round_budget);
    ("tail sync_round budget", `Quick, test_sync_round_budget);
  ]
