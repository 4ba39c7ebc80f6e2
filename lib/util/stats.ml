module Acc = struct
  type t = { mutable n : int; mutable mean : float; mutable m2 : float }

  let create () = { n = 0; mean = 0.; m2 = 0. }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let add_int t x = add t (float_of_int x)
  let mean t = if t.n = 0 then nan else t.mean
  let variance t = if t.n < 2 then nan else t.m2 /. float_of_int (t.n - 1)
end

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0. xs /. float_of_int n

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    if q <= 0. then sorted.(0)
    else if q >= 1. then sorted.(n - 1)
    else begin
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float (Float.floor pos) in
      let frac = pos -. float_of_int i in
      if i + 1 >= n then sorted.(n - 1)
      else sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))
    end
  end

let median xs = quantile xs 0.5

type fit = { slope : float; intercept : float; r2 : float }

let linear_fit pts =
  let n = Array.length pts in
  if n < 2 then { slope = nan; intercept = nan; r2 = nan }
  else begin
    let fn = float_of_int n in
    let sx = ref 0. and sy = ref 0. and sxx = ref 0. and sxy = ref 0. in
    Array.iter
      (fun (x, y) ->
        sx := !sx +. x;
        sy := !sy +. y;
        sxx := !sxx +. (x *. x);
        sxy := !sxy +. (x *. y))
      pts;
    let denom = (fn *. !sxx) -. (!sx *. !sx) in
    if Float.abs denom < 1e-12 then { slope = nan; intercept = nan; r2 = nan }
    else begin
      let slope = ((fn *. !sxy) -. (!sx *. !sy)) /. denom in
      let intercept = (!sy -. (slope *. !sx)) /. fn in
      let ybar = !sy /. fn in
      let ss_tot = ref 0. and ss_res = ref 0. in
      Array.iter
        (fun (x, y) ->
          let pred = (slope *. x) +. intercept in
          ss_tot := !ss_tot +. ((y -. ybar) *. (y -. ybar));
          ss_res := !ss_res +. ((y -. pred) *. (y -. pred)))
        pts;
      let r2 = if !ss_tot <= 0. then 1. else 1. -. (!ss_res /. !ss_tot) in
      { slope; intercept; r2 }
    end
  end

let log_fit pts =
  let mapped = Array.map (fun (x, y) -> (log x, y)) pts in
  linear_fit mapped

let pearson pts =
  let n = Array.length pts in
  if n < 2 then nan
  else begin
    let xs = Array.map fst pts and ys = Array.map snd pts in
    let mx = mean xs and my = mean ys in
    let num = ref 0. and dx = ref 0. and dy = ref 0. in
    Array.iter
      (fun (x, y) ->
        num := !num +. ((x -. mx) *. (y -. my));
        dx := !dx +. ((x -. mx) *. (x -. mx));
        dy := !dy +. ((y -. my) *. (y -. my)))
      pts;
    if !dx <= 0. || !dy <= 0. then nan else !num /. sqrt (!dx *. !dy)
  end

let binomial_ci95 ~successes ~trials =
  if trials = 0 then (nan, nan)
  else begin
    let z = 1.96 in
    let n = float_of_int trials in
    let p = float_of_int successes /. n in
    let z2 = z *. z in
    let denom = 1. +. (z2 /. n) in
    let center = (p +. (z2 /. (2. *. n))) /. denom in
    let half = z *. sqrt (((p *. (1. -. p)) +. (z2 /. (4. *. n))) /. n) /. denom in
    (Float.max 0. (center -. half), Float.min 1. (center +. half))
  end

let chi_square_uniform counts =
  let k = Array.length counts in
  let total = Array.fold_left ( + ) 0 counts in
  if k = 0 || total = 0 then nan
  else begin
    let expected = float_of_int total /. float_of_int k in
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0. counts
  end

let ks_statistic xs cdf =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    let fn = float_of_int n in
    let worst = ref 0. in
    Array.iteri
      (fun i x ->
        let f = cdf x in
        let lo = float_of_int i /. fn and hi = float_of_int (i + 1) /. fn in
        worst := Float.max !worst (Float.max (Float.abs (f -. lo)) (Float.abs (hi -. f))))
      sorted;
    !worst
  end
