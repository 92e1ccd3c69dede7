package obs

// dashboardHTML is the embedded live dashboard: it polls /status and
// /precision once a second and renders the progress line, the
// precision-convergence table (an inline-SVG half-width-vs-runs
// sparkline per configuration) and the experiment table — no external
// assets, so it works offline and inside CI artifacts.
const dashboardHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>varsim live</title>
<style>
  body { font: 14px/1.45 system-ui, sans-serif; margin: 1.5rem; color: #222; background: #fafafa; }
  h1 { font-size: 1.2rem; margin: 0 0 .25rem; }
  #status { color: #555; margin-bottom: 1rem; white-space: pre-wrap; }
  .chart { background: #fff; border: 1px solid #ddd; border-radius: 6px; padding: .5rem .75rem; margin-bottom: 1rem; max-width: 720px; }
  .chart h2 { font-size: .95rem; margin: 0 0 .25rem; font-weight: 600; }
  svg { display: block; }
  polyline { fill: none; stroke: #0a7; stroke-width: 1.5; }
  .empty { color: #999; font-style: italic; }
  table { border-collapse: collapse; font-size: .85rem; }
  td, th { padding: .15rem .6rem; text-align: left; border-bottom: 1px solid #eee; }
  .done { color: #0a7; } .failed { color: #c33; } .drained { color: #b80; } .running { color: #07c; font-weight: 600; }
</style>
</head>
<body>
<h1>varsim live observability</h1>
<div id="status" class="empty">waiting for /status…</div>
<div class="chart"><h2>precision convergence</h2><div id="precision" class="empty">no precision data</div></div>
<div class="chart"><h2>experiments</h2><div id="fleet" class="empty">no fleet</div></div>
<script>
"use strict";
function polyline(values, w, h) {
  const finite = values.filter(v => isFinite(v));
  if (!finite.length) return "";
  const max = Math.max(...finite), min = Math.min(0, ...finite);
  const span = (max - min) || 1;
  return values.map((v, i) => {
    const x = values.length > 1 ? i / (values.length - 1) * w : w / 2;
    const y = h - (isFinite(v) ? (v - min) / span : 0) * (h - 6) - 3;
    return x.toFixed(1) + "," + y.toFixed(1);
  }).join(" ");
}
function renderFleet(st) {
  const el = document.getElementById("fleet");
  if (!st.experiments || !st.experiments.length) { el.textContent = "no fleet"; return; }
  let html = "<table><tr><th>experiment</th><th>state</th><th>wall s</th><th>Msim-cycles/s</th></tr>";
  for (const e of st.experiments) {
    html += "<tr><td>" + e.name + '</td><td class="' + e.state + '">' + e.state +
      (e.error ? " — " + e.error : "") + "</td><td>" +
      (e.wall_seconds ? e.wall_seconds.toFixed(1) : "") + "</td><td>" +
      (e.sim_cycles_per_sec ? (e.sim_cycles_per_sec / 1e6).toFixed(1) : "") + "</td></tr>";
  }
  el.innerHTML = html + "</table>";
}
function renderPrecision(p) {
  const el = document.getElementById("precision");
  if (!p || !p.rows || !p.rows.length) { el.className = "empty"; el.textContent = "no precision data"; return; }
  el.className = "";
  let html = "target ±" + (100 * p.rel_err).toPrecision(2) + "% at " +
    (100 * p.confidence).toPrecision(3) + "% confidence" +
    "<table><tr><th>experiment</th><th>config</th><th>n</th><th>achieved</th><th>to go</th><th>half-width vs runs</th></tr>";
  for (const r of p.rows) {
    const cls = r.insufficient ? "empty" : r.converged ? "done" : "running";
    const ach = r.insufficient ? "n&lt;2" : "±" + r.rel_half_width_pct.toPrecision(3) + "%";
    const togo = r.insufficient ? "?" : (r.runs_to_go || 0);
    const spark = r.history && r.history.length > 1
      ? '<svg viewBox="0 0 120 24" preserveAspectRatio="none" style="width:120px;height:24px"><polyline points="' +
        polyline(r.history, 120, 24) + '"/></svg>'
      : "";
    html += "<tr><td>" + r.experiment + "</td><td>" + (r.config_hash || "").slice(0, 8) +
      "</td><td>" + r.n + '</td><td class="' + cls + '">' + ach +
      "</td><td>" + togo + "</td><td>" + spark + "</td></tr>";
  }
  el.innerHTML = html + "</table>";
}
async function tick() {
  try {
    const [st, pr] = await Promise.all([
      fetch("/status").then(r => r.json()),
      fetch("/precision").then(r => r.json()),
    ]);
    renderFleet(st);
    renderPrecision(pr);
    const s = document.getElementById("status");
    s.className = "";
    s.textContent = st.total
      ? st.done + "/" + st.total + " experiments" +
        (st.eta_seconds ? ", ETA ~" + Math.round(st.eta_seconds) + "s" : "") +
        (st.sim_cycles_per_sec ? ", " + (st.sim_cycles_per_sec / 1e6).toFixed(1) + " Msim-cycles/s" : "")
      : "no experiments";
  } catch (err) {
    document.getElementById("status").textContent = "poll failed: " + err;
  }
}
tick();
setInterval(tick, 1000);
</script>
</body>
</html>
`
