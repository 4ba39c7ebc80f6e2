(* In-memory span recorder for the traced benchmark run.

   Spans are recorded from the benchmark's own files, around the calls
   it makes into each library module: name, tag, start, end, parent,
   domain, run id and the minor words allocated inside.  Nothing is
   written while the run is measured; [to_jsonl] serializes the spans
   when it ends.

   One recorder belongs to one domain.  [Parallel.map] forbids shared
   mutable state, so a worker domain creates its own recorder (with a
   disjoint id range) and hands its spans back with its result; the
   caller merges them with [adopt]. *)

module Json = Churnet_util.Json
module Telemetry = Churnet_experiments.Telemetry

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  tag : string;  (** free-form qualifier, e.g. the model kind of a cell *)
  domain : int;
  start : float;
  stop : float;
  words : float;  (** minor words allocated between start and stop *)
}

type t = {
  run : string;
  counter : unit -> float;
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;
}

(* The calling domain's own allocation counter: exact for work done on
   this domain, blind to other domains. *)
let domain_words () = Gc.minor_words ()

(* Allocation of every domain, joined workers included: right for spans
   on the orchestrating domain around calls that fan out and join. *)
let process_words () = (Gc.quick_stat ()).Gc.minor_words

let create ?(words = domain_words) ?(first_id = 0) ?parent run =
  { run; counter = words; next = first_id; stack = Option.to_list parent; spans = [] }

let current t = match t.stack with p :: _ -> p | [] -> -1

let with_span t ?(tag = "") name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = current t in
  t.stack <- id :: t.stack;
  let w0 = t.counter () in
  let start = Telemetry.now () in
  let finish () =
    let stop = Telemetry.now () in
    let words = t.counter () -. w0 in
    t.stack <- List.tl t.stack;
    t.spans <-
      { id; parent; name; tag; domain = (Domain.self () :> int); start; stop; words }
      :: t.spans
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let spans t = List.rev t.spans
let adopt t spans = t.spans <- List.rev_append spans t.spans
let duration s = s.stop -. s.start
let named name spans = List.filter (fun s -> s.name = name) spans
let total name spans = List.fold_left (fun acc s -> acc +. duration s) 0. (named name spans)

(* Self time: a span's duration minus the part of its interval that its
   children cover.  Children of a fan-out run concurrently on several
   domains, so coverage is the measure of the union of their intervals,
   not the sum of their durations. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (Float.max c.start s.start, Float.min c.stop s.stop))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0., neg_infinity) kids
      in
      (s, duration s -. covered))
    spans

let to_jsonl t =
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity t.spans in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (s, self) ->
      Buffer.add_string buf
        (Json.to_string
           (Json.Obj
              [
                ("run", Json.String t.run);
                ("id", Json.Int s.id);
                ("parent", Json.Int s.parent);
                ("name", Json.String s.name);
                ("tag", Json.String s.tag);
                ("domain", Json.Int s.domain);
                ("start_s", Json.Float (s.start -. t0));
                ("end_s", Json.Float (s.stop -. t0));
                ("self_s", Json.Float self);
                ("minor_words", Json.Float s.words);
              ]));
      Buffer.add_char buf '\n')
    (self_times (spans t));
  Buffer.contents buf
