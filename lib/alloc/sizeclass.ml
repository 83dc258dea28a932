let granule = 16
let large_threshold = 16 * 1024
let page = Vm.Phys.page_size

(* Powers of two and midpoints: 16, 24, 32, 48, 64, 96, ... up to the
   large threshold. All multiples of the granule except 24, which we skip
   (tag granularity demands 16-byte multiples). *)
let sizes =
  let rec build acc s =
    if s >= large_threshold then List.rev (large_threshold :: acc)
    else
      let mid = s + (s / 2) in
      let acc = s :: acc in
      let acc = if mid < large_threshold && mid mod granule = 0 then mid :: acc else acc in
      build acc (s * 2)
  in
  Array.of_list (build [] granule)

let num_classes = Array.length sizes

let size_of_class i =
  if i < 0 || i >= num_classes then invalid_arg "Sizeclass.size_of_class";
  sizes.(i)

(* class_of_size runs on every malloc AND every free (the free lists are
   keyed by class); a linear scan over [sizes] was measurable there. The
   table maps ceil(sz / granule) straight to the class index. *)
let class_table =
  let t = Array.make ((large_threshold / granule) + 1) 0 in
  let rec find sz i = if sizes.(i) >= sz then i else find sz (i + 1) in
  for g = 0 to Array.length t - 1 do
    t.(g) <- find (g * granule) 0
  done;
  t

let class_of_size sz =
  if sz > large_threshold then None
  else Some class_table.((sz + granule - 1) / granule)

(* Large sizes are quantized to quarter-power-of-two steps (at least one
   page) so freed spans are actually reusable: without quantization every
   distinct request size would occupy its own free bucket forever. At most
   ~12.5% internal fragmentation, in line with real chunk allocators. *)
let round_large sz =
  let sz = Int.max sz page in
  let b = ref page in
  while !b * 2 <= sz do
    b := !b * 2
  done;
  let step = Int.max page (!b / 4) in
  let sz = (sz + step - 1) / step * step in
  Cheri.Compress.round_length ((sz + page - 1) / page * page)

let rounded_size sz =
  let sz = Int.max sz granule in
  match class_of_size sz with
  | Some c -> sizes.(c)
  | None -> round_large sz
