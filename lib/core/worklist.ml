module Intvec = Churnet_util.Intvec
module Dyngraph = Churnet_graph.Dyngraph

type t = Intvec.t

let create () = Intvec.create ~capacity:64 ()

let load t tbl =
  Intvec.clear t;
  (* lint: allow no-hashtbl-order — the repair passes visit nodes in the
     table's iteration order, reversed, exactly as the consed
     [Hashtbl.fold] they replace did; that order is a pure function of
     the seed-determined insertion history, so replays are bit-identical. *)
  Hashtbl.iter (fun id () -> Intvec.push t id) tbl

let iter t f =
  for i = Intvec.length t - 1 downto 0 do
    f (Intvec.get t i)
  done

let kill_and_mark t g tbl victim =
  Intvec.clear t;
  Dyngraph.in_neighbors_into g victim t;
  Dyngraph.kill g victim;
  Hashtbl.remove tbl victim;
  for i = 0 to Intvec.length t - 1 do
    let u = Intvec.get t i in
    if Dyngraph.is_alive g u then Hashtbl.replace tbl u ()
  done
