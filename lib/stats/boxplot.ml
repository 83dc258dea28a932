type t = {
  label : string;
  n : int;
  min : float;
  q1 : float;
  median : float;
  q3 : float;
  max : float;
}

let of_samples ~label = function
  | [] -> None
  | xs ->
      let s = Summary.of_list xs in
      Some
        {
          label;
          n = s.Summary.n;
          min = s.Summary.min;
          q1 = s.Summary.q1;
          median = s.Summary.median;
          q3 = s.Summary.q3;
          max = s.Summary.max;
        }

(* Axis width in characters. *)
let width = 60

let render fmt ~unit boxes =
  match boxes with
  | [] -> ()
  | _ ->
      let lo = List.fold_left (fun a b -> min a b.min) infinity boxes in
      let hi = List.fold_left (fun a b -> max a b.max) neg_infinity boxes in
      let lo = max lo (max (hi /. 1e6) 1e-9) in
      let hi = if hi <= lo then lo *. 10.0 else hi in
      let pos v =
        let v = max v lo in
        let frac = Float.log (v /. lo) /. Float.log (hi /. lo) in
        let c = int_of_float (frac *. float_of_int (width - 1)) in
        max 0 (min (width - 1) c)
      in
      let lwidth =
        List.fold_left (fun a b -> max a (String.length b.label)) 0 boxes
      in
      List.iter
        (fun b ->
          let line = Bytes.make width ' ' in
          let put i ch = Bytes.set line i ch in
          for i = pos b.min to pos b.max do
            put i '-'
          done;
          for i = pos b.q1 to pos b.q3 do
            put i '='
          done;
          put (pos b.min) '|';
          put (pos b.max) '|';
          put (pos b.q1) '[';
          put (pos b.q3) ']';
          put (pos b.median) '#';
          Format.fprintf fmt "  %-*s |%s| med %s@." lwidth b.label
            (Bytes.to_string line)
            (Table.cell_f b.median))
        boxes;
      Format.fprintf fmt "  %-*s  %s%*s%s  (%s, log axis)@." lwidth "" (Table.cell_f lo)
        (width - String.length (Table.cell_f lo) - String.length (Table.cell_f hi))
        "" (Table.cell_f hi) unit
