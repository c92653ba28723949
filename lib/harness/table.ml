let widths header rows =
  let all = header :: rows in
  let columns = List.length header in
  let w = Array.make columns 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          if i < columns && String.length cell > w.(i) then
            w.(i) <- String.length cell)
        row)
    all;
  w

let pad width s = s ^ String.make (max 0 (width - String.length s)) ' '

let print_row w row =
  let cells = List.mapi (fun i cell -> pad w.(i) cell) row in
  print_string "| ";
  print_string (String.concat " | " cells);
  print_string " |\n"

let rule w =
  let dashes = Array.to_list (Array.map (fun n -> String.make n '-') w) in
  print_string "+-";
  print_string (String.concat "-+-" dashes);
  print_string "-+\n"

let print ~title ~header rows =
  print_char '\n';
  print_string ("== " ^ title ^ " ==\n");
  let w = widths header rows in
  rule w;
  print_row w header;
  rule w;
  List.iter (print_row w) rows;
  rule w;
  flush stdout

let ms v = if Float.is_nan v then "-" else Printf.sprintf "%.1fms" v
let yesno b = if b then "yes" else "no"
let intc = string_of_int
let wall label seconds = Printf.sprintf "%-28s %6.2f s wall" label seconds
