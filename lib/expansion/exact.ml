module Snapshot = Churnet_graph.Snapshot

let h_out_with_witness snap =
  let n = Snapshot.n snap in
  if n < 2 then invalid_arg "Exact.h_out: need at least 2 vertices";
  if n > 22 then invalid_arg "Exact.h_out: snapshot too large for enumeration";
  (* Neighborhood masks: bit v of mask.(u) set iff {u,v} is an edge. *)
  let masks = Array.make n 0 in
  for u = 0 to n - 1 do
    Snapshot.iter_neighbors snap u (fun v -> masks.(u) <- masks.(u) lor (1 lsl v))
  done;
  let best = ref infinity and witness = ref 0 in
  let full = (1 lsl n) - 1 in
  for s = 1 to full do
    let size = ref 0 and nbr = ref 0 in
    for v = 0 to n - 1 do
      if s land (1 lsl v) <> 0 then begin
        incr size;
        nbr := !nbr lor masks.(v)
      end
    done;
    if 2 * !size <= n then begin
      let boundary = !nbr land lnot s land full in
      let out = ref 0 and b = ref boundary in
      while !b <> 0 do
        b := !b land (!b - 1);
        incr out
      done;
      let ratio = float_of_int !out /. float_of_int !size in
      if ratio < !best then begin
        best := ratio;
        witness := s
      end
    end
  done;
  let set = ref [] in
  for v = n - 1 downto 0 do
    if !witness land (1 lsl v) <> 0 then set := v :: !set
  done;
  (!best, !set)

let h_out snap = fst (h_out_with_witness snap)
