type series = { label : string; points : (float * float) array }

let glyphs = [| '*'; '+'; 'o'; '#'; '@'; 'x'; '%'; '&' |]

let plot ?(width = 64) ?(height = 18) ?(logx = false) ?(logy = false) ~title ~xlabel ~ylabel
    series =
  let transform logscale v = if logscale then log v else v in
  let usable (x, y) = (not (logx && x <= 0.)) && not (logy && y <= 0.) in
  let all_points =
    List.concat_map (fun s -> Array.to_list s.points) series |> List.filter usable
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "=== %s ===\n" title);
  if all_points = [] then begin
    Buffer.add_string buf "(no data)\n";
    Buffer.contents buf
  end
  else begin
    let xs = List.map (fun (x, _) -> transform logx x) all_points in
    let ys = List.map (fun (_, y) -> transform logy y) all_points in
    let xmin = List.fold_left Float.min infinity xs
    and xmax = List.fold_left Float.max neg_infinity xs
    and ymin = List.fold_left Float.min infinity ys
    and ymax = List.fold_left Float.max neg_infinity ys in
    let xspan = if xmax -. xmin <= 0. then 1. else xmax -. xmin in
    let yspan = if ymax -. ymin <= 0. then 1. else ymax -. ymin in
    let grid = Array.make_matrix height width ' ' in
    List.iteri
      (fun si s ->
        let glyph = glyphs.(si mod Array.length glyphs) in
        Array.iter
          (fun (x, y) ->
            if usable (x, y) then begin
              let tx = transform logx x and ty = transform logy y in
              let col =
                int_of_float ((tx -. xmin) /. xspan *. float_of_int (width - 1))
              in
              let row =
                height - 1
                - int_of_float ((ty -. ymin) /. yspan *. float_of_int (height - 1))
              in
              if row >= 0 && row < height && col >= 0 && col < width then
                grid.(row).(col) <- glyph
            end)
          s.points)
      series;
    let inv logscale v = if logscale then exp v else v in
    let ytop = inv logy ymax and ybot = inv logy ymin in
    Array.iteri
      (fun i row ->
        let margin =
          if i = 0 then Printf.sprintf "%10.3g |" ytop
          else if i = height - 1 then Printf.sprintf "%10.3g |" ybot
          else Printf.sprintf "%10s |" ""
        in
        Buffer.add_string buf margin;
        Array.iter (Buffer.add_char buf) row;
        Buffer.add_char buf '\n')
      grid;
    Buffer.add_string buf (Printf.sprintf "%10s +%s\n" "" (String.make width '-'));
    Buffer.add_string buf
      (Printf.sprintf "%10s  %.3g%s%.3g\n" ""
         (inv logx xmin)
         (String.make (max 1 (width - 16)) ' ')
         (inv logx xmax));
    Buffer.add_string buf
      (Printf.sprintf "x: %s%s   y: %s%s\n" xlabel
         (if logx then " (log)" else "")
         ylabel
         (if logy then " (log)" else ""));
    List.iteri
      (fun si s ->
        Buffer.add_string buf
          (Printf.sprintf "  %c = %s\n" glyphs.(si mod Array.length glyphs) s.label))
      series;
    Buffer.contents buf
  end
