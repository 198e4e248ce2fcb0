type row = Cells of string list | Separator
type t = { header : string list; mutable rows : row list (* reversed *) }

let create ~header = { header; rows = [] }

let add_row t cells =
  let n = List.length t.header in
  let k = List.length cells in
  if k > n then invalid_arg "Table.add_row: more cells than header columns";
  let cells =
    if k = n then cells else cells @ List.init (n - k) (fun _ -> "")
  in
  t.rows <- Cells cells :: t.rows

let add_separator t = t.rows <- Separator :: t.rows

let widths t =
  let n = List.length t.header in
  let w = Array.make n 0 in
  let measure cells =
    List.iteri (fun i c -> if String.length c > w.(i) then w.(i) <- String.length c) cells
  in
  measure t.header;
  List.iter (function Cells c -> measure c | Separator -> ()) t.rows;
  w

let to_string t =
  let w = widths t in
  let buf = Buffer.create 256 in
  let pad i c =
    Buffer.add_string buf c;
    Buffer.add_string buf (String.make (w.(i) - String.length c) ' ')
  in
  let render_cells cells =
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buf "  ";
        pad i c)
      cells;
    Buffer.add_char buf '\n'
  in
  let total = Array.fold_left ( + ) 0 w + (2 * (Array.length w - 1)) in
  render_cells t.header;
  Buffer.add_string buf (String.make (max 1 total) '-');
  Buffer.add_char buf '\n';
  List.iter
    (function
      | Cells c -> render_cells c
      | Separator ->
          Buffer.add_string buf (String.make (max 1 total) '-');
          Buffer.add_char buf '\n')
    (List.rev t.rows);
  Buffer.contents buf

let print t = print_string (to_string t)
