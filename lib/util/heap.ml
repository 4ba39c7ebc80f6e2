(* Equal-priority ties break on a monotone insertion sequence number, so
   simultaneous events pop in FIFO order — a stable, documented order —
   instead of whatever array positions the heap shape happened to give
   them.  Async flooding schedules many deliveries at the same instant
   (every neighbor of a newly informed node gets [now + 1]), so without
   the tiebreak the pop order of simultaneous events would shift
   whenever unrelated insertions rebalanced the heap. *)
type 'a t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable vals : 'a option array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  {
    keys = Array.make 16 0.;
    seqs = Array.make 16 0;
    vals = Array.make 16 None;
    size = 0;
    next_seq = 0;
  }

let length h = h.size
let is_empty h = h.size = 0

let grow h =
  let cap = Array.length h.keys in
  let keys = Array.make (2 * cap) 0. in
  let seqs = Array.make (2 * cap) 0 in
  let vals = Array.make (2 * cap) None in
  Array.blit h.keys 0 keys 0 cap;
  Array.blit h.seqs 0 seqs 0 cap;
  Array.blit h.vals 0 vals 0 cap;
  h.keys <- keys;
  h.seqs <- seqs;
  h.vals <- vals

let swap h i j =
  let k = h.keys.(i) in
  h.keys.(i) <- h.keys.(j);
  h.keys.(j) <- k;
  let s = h.seqs.(i) in
  h.seqs.(i) <- h.seqs.(j);
  h.seqs.(j) <- s;
  let v = h.vals.(i) in
  h.vals.(i) <- h.vals.(j);
  h.vals.(j) <- v

(* Lexicographic (key, seq) order: seq values are unique, so this is a
   strict total order and the heap property needs no tie handling. *)
let less h i j =
  h.keys.(i) < h.keys.(j) || (h.keys.(i) = h.keys.(j) && h.seqs.(i) < h.seqs.(j))

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less h i parent then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && less h l !smallest then smallest := l;
  if r < h.size && less h r !smallest then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let push h priority v =
  if h.size = Array.length h.keys then grow h;
  h.keys.(h.size) <- priority;
  h.seqs.(h.size) <- h.next_seq;
  h.next_seq <- h.next_seq + 1;
  h.vals.(h.size) <- Some v;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let pop h =
  if h.size = 0 then None
  else begin
    let key = h.keys.(0) in
    let v = h.vals.(0) in
    h.size <- h.size - 1;
    h.keys.(0) <- h.keys.(h.size);
    h.seqs.(0) <- h.seqs.(h.size);
    h.vals.(0) <- h.vals.(h.size);
    h.vals.(h.size) <- None;
    if h.size > 0 then sift_down h 0 else h.next_seq <- 0;
    match v with Some x -> Some (key, x) | None -> assert false
  end

let peek h =
  if h.size = 0 then None
  else match h.vals.(0) with Some x -> Some (h.keys.(0), x) | None -> assert false
